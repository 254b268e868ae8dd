#include "serve/model_snapshot.hpp"

#include <optional>
#include <utility>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/framed_file.hpp"

namespace loom::serve {

namespace {

// Section ids, in the exact order they must appear in the file.
enum SectionId : std::uint32_t {
  kName = 1,
  kNetwork = 2,
  kProfile = 3,
  kInputSpec = 4,
  kWeights = 5,
};
constexpr std::uint32_t kSectionOrder[] = {kName, kNetwork, kProfile,
                                           kInputSpec, kWeights};

// Decode-side sanity bounds: generous for any real model, tight enough that
// a corrupted length field cannot drive a pathological allocation.
constexpr std::uint64_t kMaxLayers = 1u << 16;
constexpr std::uint64_t kMaxVector = 1u << 16;
constexpr std::uint64_t kMaxTensors = 1u << 16;
constexpr std::uint64_t kMaxRank = 8;

void fail(const std::string& message) { throw SnapshotError(message); }

constexpr common::FramedFormat kFormat{
    .magic = {'L', 'O', 'O', 'M', 'S', 'N', 'A', 'P'},
    .version = kSnapshotVersion,
    .sections = kSectionOrder,
    .max_string = 1u << 16,
    .noun = "snapshot",
    .fail = fail};

using common::ByteReader;
using common::ByteWriter;

void write_shape3(ByteWriter& w, const nn::Shape3& s) {
  w.i64(s.c);
  w.i64(s.h);
  w.i64(s.w);
}

[[nodiscard]] nn::Shape3 read_shape3(ByteReader& r, const char* what) {
  nn::Shape3 s;
  s.c = r.i64(what);
  s.h = r.i64(what);
  s.w = r.i64(what);
  return s;
}

[[nodiscard]] int bounded_int(ByteReader& r, const char* what, int lo, int hi) {
  const std::int32_t v = r.i32(what);
  if (v < lo || v > hi) {
    throw SnapshotError(std::string("snapshot field ") + what +
                        " out of range: " + std::to_string(v));
  }
  return static_cast<int>(v);
}

// ---- Section payloads ------------------------------------------------------

void encode_network(ByteWriter& w, const nn::Network& net) {
  w.str(net.name());
  write_shape3(w, net.input());
  write_shape3(w, net.current());
  w.u64(net.size());
  for (const nn::Layer& l : net.layers()) {
    w.u32(static_cast<std::uint32_t>(l.kind));
    w.str(l.name);
    write_shape3(w, l.in);
    write_shape3(w, l.out);
    w.i32(l.kernel_h);
    w.i32(l.kernel_w);
    w.i32(l.stride);
    w.i32(l.pad);
    w.i32(l.groups);
    w.u32(static_cast<std::uint32_t>(l.pool));
    w.i32(l.act_precision);
    w.i32(l.weight_precision);
    w.i32(l.precision_group);
  }
}

[[nodiscard]] nn::Network decode_network(ByteReader& r) {
  const std::string name = r.str("network name");
  const nn::Shape3 input = read_shape3(r, "network input");
  const nn::Shape3 current = read_shape3(r, "network current");
  const std::uint64_t count = r.u64("layer count");
  if (count > kMaxLayers) {
    throw SnapshotError("snapshot layer count out of range: " +
                        std::to_string(count));
  }
  nn::Network net(name, input);
  for (std::uint64_t i = 0; i < count; ++i) {
    nn::Layer l;
    const std::uint32_t kind = r.u32("layer kind");
    if (kind > static_cast<std::uint32_t>(nn::LayerKind::kPool)) {
      throw SnapshotError("snapshot layer kind out of range: " +
                          std::to_string(kind));
    }
    l.kind = static_cast<nn::LayerKind>(kind);
    l.name = r.str("layer name");
    l.in = read_shape3(r, "layer in");
    l.out = read_shape3(r, "layer out");
    l.kernel_h = bounded_int(r, "kernel_h", 1, 1 << 14);
    l.kernel_w = bounded_int(r, "kernel_w", 1, 1 << 14);
    l.stride = bounded_int(r, "stride", 1, 1 << 14);
    l.pad = bounded_int(r, "pad", 0, 1 << 14);
    l.groups = bounded_int(r, "groups", 1, 1 << 14);
    const std::uint32_t pool = r.u32("pool kind");
    if (pool > static_cast<std::uint32_t>(nn::PoolKind::kAvg)) {
      throw SnapshotError("snapshot pool kind out of range: " +
                          std::to_string(pool));
    }
    l.pool = static_cast<nn::PoolKind>(pool);
    l.act_precision = bounded_int(r, "act_precision", 1, kBasePrecision);
    l.weight_precision = bounded_int(r, "weight_precision", 1, kBasePrecision);
    l.precision_group = bounded_int(r, "precision_group", -1, 1 << 20);
    if (l.in.c < 0 || l.in.h < 0 || l.in.w < 0 || l.out.c < 0 || l.out.h < 0 ||
        l.out.w < 0 || (l.in.c % l.groups) != 0 ||
        (l.kind == nn::LayerKind::kConv && (l.out.c % l.groups) != 0)) {
      throw SnapshotError("snapshot layer '" + l.name +
                          "' has inconsistent geometry");
    }
    net.layers().push_back(std::move(l));
  }
  net.set_current(current);
  return net;
}

void encode_profile(ByteWriter& w, const quant::PrecisionProfile& p) {
  w.str(p.network);
  w.u32(static_cast<std::uint32_t>(p.target));
  w.u64(p.conv_act.size());
  for (const int v : p.conv_act) w.i32(v);
  w.i32(p.conv_weight);
  w.u64(p.fc_weight.size());
  for (const int v : p.fc_weight) w.i32(v);
  w.f64(p.dynamic_act_trim);
}

[[nodiscard]] quant::PrecisionProfile decode_profile(ByteReader& r) {
  quant::PrecisionProfile p;
  p.network = r.str("profile network");
  const std::uint32_t target = r.u32("profile target");
  if (target > static_cast<std::uint32_t>(quant::AccuracyTarget::k99)) {
    throw SnapshotError("snapshot accuracy target out of range: " +
                        std::to_string(target));
  }
  p.target = static_cast<quant::AccuracyTarget>(target);
  const std::uint64_t na = r.u64("conv_act count");
  if (na > kMaxVector) {
    throw SnapshotError("snapshot conv_act count out of range: " +
                        std::to_string(na));
  }
  p.conv_act.reserve(static_cast<std::size_t>(na));
  for (std::uint64_t i = 0; i < na; ++i) {
    p.conv_act.push_back(bounded_int(r, "conv_act", 1, kBasePrecision));
  }
  p.conv_weight = bounded_int(r, "conv_weight", 1, kBasePrecision);
  const std::uint64_t nf = r.u64("fc_weight count");
  if (nf > kMaxVector) {
    throw SnapshotError("snapshot fc_weight count out of range: " +
                        std::to_string(nf));
  }
  p.fc_weight.reserve(static_cast<std::size_t>(nf));
  for (std::uint64_t i = 0; i < nf; ++i) {
    p.fc_weight.push_back(bounded_int(r, "fc_weight", 1, kBasePrecision));
  }
  p.dynamic_act_trim = r.f64("dynamic_act_trim");
  return p;
}

void encode_input_spec(ByteWriter& w, const nn::SyntheticSpec& s) {
  w.i32(s.precision);
  w.f64(s.alpha);
  w.u8(s.is_signed ? 1 : 0);
  w.f64(s.zero_fraction);
}

[[nodiscard]] nn::SyntheticSpec decode_input_spec(ByteReader& r) {
  nn::SyntheticSpec s;
  s.precision = bounded_int(r, "spec precision", 1, kBasePrecision);
  s.alpha = r.f64("spec alpha");
  const std::uint8_t is_signed = r.u8("spec is_signed");
  if (is_signed > 1) {
    throw SnapshotError("snapshot spec is_signed out of range: " +
                        std::to_string(is_signed));
  }
  s.is_signed = is_signed != 0;
  s.zero_fraction = r.f64("spec zero_fraction");
  if (!(s.alpha >= 1.0) || !(s.zero_fraction >= 0.0) ||
      !(s.zero_fraction <= 1.0)) {
    throw SnapshotError("snapshot input spec has out-of-range distribution");
  }
  return s;
}

void encode_weights(ByteWriter& w, const std::vector<nn::Tensor>& weights) {
  w.u64(weights.size());
  for (const nn::Tensor& t : weights) {
    const auto& dims = t.shape().dims();
    w.u32(static_cast<std::uint32_t>(dims.size()));
    for (const std::int64_t d : dims) w.i64(d);
    for (std::int64_t i = 0; i < t.elements(); ++i) {
      const auto v = static_cast<std::uint16_t>(t.flat(i));
      w.u8(static_cast<std::uint8_t>(v & 0xFF));
      w.u8(static_cast<std::uint8_t>(v >> 8));
    }
  }
}

[[nodiscard]] std::vector<nn::Tensor> decode_weights(ByteReader& r) {
  const std::uint64_t count = r.u64("weight tensor count");
  if (count > kMaxTensors) {
    throw SnapshotError("snapshot weight tensor count out of range: " +
                        std::to_string(count));
  }
  std::vector<nn::Tensor> weights;
  weights.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t t = 0; t < count; ++t) {
    const std::uint32_t rank = r.u32("tensor rank");
    if (rank > kMaxRank) {
      throw SnapshotError("snapshot tensor rank out of range: " +
                          std::to_string(rank));
    }
    std::vector<std::int64_t> dims;
    std::int64_t elements = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      const std::int64_t dim = r.i64("tensor dim");
      // Bound each dim so the product below cannot overflow, and the total
      // so a flipped length cannot drive a huge allocation past the
      // remaining-bytes check.
      if (dim < 0 || dim > (std::int64_t{1} << 32)) {
        throw SnapshotError("snapshot tensor dim out of range: " +
                            std::to_string(dim));
      }
      dims.push_back(dim);
      elements *= dim;
      if (elements > (std::int64_t{1} << 33)) {
        throw SnapshotError("snapshot tensor element count out of range");
      }
    }
    const std::span<const std::uint8_t> values =
        r.take(static_cast<std::size_t>(elements) * 2, "tensor values");
    nn::Tensor tensor{nn::Shape(std::move(dims))};
    for (std::int64_t i = 0; i < elements; ++i) {
      const auto at = static_cast<std::size_t>(i) * 2;
      const auto lo = static_cast<std::uint16_t>(values[at]);
      const auto hi = static_cast<std::uint16_t>(values[at + 1]);
      tensor.set_flat(
          i, static_cast<Value>(static_cast<std::uint16_t>(lo | (hi << 8))));
    }
    weights.push_back(std::move(tensor));
  }
  return weights;
}

[[nodiscard]] std::size_t weighted_layer_count(const nn::Network& net) {
  std::size_t n = 0;
  for (const auto& l : net.layers()) {
    if (l.has_weights()) ++n;
  }
  return n;
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  return loom::fnv1a64(bytes);  // shared primitive, common/bitops.hpp
}

std::uint64_t fnv1a64(const std::string& s) noexcept {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::vector<std::uint8_t> encode_snapshot(const Model& model) {
  return common::encode_framed(kFormat, [&](std::uint32_t id, ByteWriter& w) {
    switch (id) {
      case kName: w.str(model.name); break;
      case kNetwork: encode_network(w, model.net); break;
      case kProfile: encode_profile(w, model.profile); break;
      case kInputSpec: encode_input_spec(w, model.input_spec); break;
      case kWeights: encode_weights(w, model.weights); break;
    }
  });
}

Model decode_snapshot(std::span<const std::uint8_t> bytes) {
  std::string name;
  std::optional<nn::Network> net;
  quant::PrecisionProfile profile;
  nn::SyntheticSpec input_spec;
  std::vector<nn::Tensor> weights;
  common::decode_framed(kFormat, bytes, [&](std::uint32_t id, ByteReader& r) {
    switch (id) {
      case kName: name = r.str("model name"); break;
      case kNetwork: net.emplace(decode_network(r)); break;
      case kProfile: profile = decode_profile(r); break;
      case kInputSpec: input_spec = decode_input_spec(r); break;
      case kWeights: weights = decode_weights(r); break;
    }
  });

  if (weights.size() != weighted_layer_count(*net)) {
    throw SnapshotError(
        "snapshot weight/layer mismatch: " + std::to_string(weights.size()) +
        " weight tensors for " +
        std::to_string(weighted_layer_count(*net)) + " weighted layers");
  }
  std::size_t wi = 0;
  for (const auto& l : net->layers()) {
    if (!l.has_weights()) continue;
    if (weights[wi].elements() != l.weight_count()) {
      throw SnapshotError("snapshot weight tensor " + std::to_string(wi) +
                          " has " + std::to_string(weights[wi].elements()) +
                          " values, layer '" + l.name + "' needs " +
                          std::to_string(l.weight_count()));
    }
    ++wi;
  }
  return Model{std::move(name), std::move(*net), std::move(profile),
               std::move(weights), input_spec};
}

void save_snapshot(const Model& model, const std::string& path) {
  common::save_framed_file(kFormat, encode_snapshot(model), path);
}

std::shared_ptr<const Model> load_snapshot(const std::string& path,
                                           FaultInjector* injector) {
  std::vector<std::uint8_t> bytes = common::read_framed_file(kFormat, path);
  if (injector != nullptr) {
    if (const auto bit = injector->corrupt_snapshot_bit(bytes.size() * 8)) {
      bytes[static_cast<std::size_t>(*bit / 8)] ^=
          static_cast<std::uint8_t>(1u << (*bit % 8));
    }
  }
  return std::make_shared<const Model>(decode_snapshot(bytes));
}

}  // namespace loom::serve
