// Checksummed section framing for binary on-disk formats; model snapshots
// (serve/model_snapshot.hpp) are the only format today. One format = one
// FramedFormat value; the byte layout, the validation and the crash-safe
// file I/O live here once:
//
//   header   magic (8) | version u32 | section_count u32
//   section  id u32 | length u64 | fnv1a64(payload) u64 | payload bytes
//   ...      sections in the format's exact order; the last payload must
//            end exactly at EOF
//
// All integers are little-endian, with no padding. Payload bytes are covered
// by the per-section FNV-1a checksum, structural bytes (magic, version,
// counts, ids, lengths, checksums) by strict validation, and every section
// reader must consume its payload exactly — so truncation, trailing bytes,
// bit flips and version skew all fail decode through the format's own error
// type, never UB.
//
// Saves are crash-safe: the image goes to `<path>.tmp` and is renamed over
// `path` only after a complete write, so a reader racing the writer sees
// either the old complete file or the new one.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace loom::common {

/// One framed file format. `fail` throws the format's error type (e.g.
/// SnapshotError); every framing failure goes through it with a message
/// prefixed by `noun`.
struct FramedFormat {
  char magic[8];
  std::uint32_t version;
  std::span<const std::uint32_t> sections;  ///< section ids, in file order
  std::uint64_t max_string;                 ///< str() length bound
  const char* noun;                         ///< message prefix, e.g. "snapshot"
  void (*fail)(const std::string& message);

  /// Throw through `fail` (which must throw).
  [[noreturn]] void raise(const std::string& message) const;
};

/// Little-endian encode into a growing byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(const FramedFormat& fmt) : fmt_(&fmt) {}

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed string; longer than the format's max_string throws.
  void str(const std::string& s);

  [[nodiscard]] std::vector<std::uint8_t>& out() noexcept { return out_; }

 private:
  const FramedFormat* fmt_;
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian decode. The accessors stay inline: bulk
/// payloads (snapshot weights) call them per value.
class ByteReader {
 public:
  ByteReader(const FramedFormat& fmt, std::span<const std::uint8_t> in)
      : fmt_(&fmt), in_(in) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

  void need(std::size_t n, const char* what) const {
    if (remaining() < n) truncated(n, what);
  }
  [[nodiscard]] std::uint8_t u8(const char* what) {
    need(1, what);
    return in_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  [[nodiscard]] std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  [[nodiscard]] double f64(const char* what) {
    const std::uint64_t bits = u64(what);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// Length-prefixed string; a length above the format's max_string throws.
  [[nodiscard]] std::string str(const char* what);
  /// The next `n` bytes as a view, consumed (bulk payloads).
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n,
                                                   const char* what) {
    need(n, what);
    const std::span<const std::uint8_t> s = in_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  [[noreturn]] void truncated(std::size_t n, const char* what) const;

  const FramedFormat* fmt_;
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

/// Frame a file image: the header, then for every section id in format
/// order its id, length, checksum and the payload `write(id, payload)`
/// produced.
[[nodiscard]] std::vector<std::uint8_t> encode_framed(
    const FramedFormat& fmt,
    const std::function<void(std::uint32_t id, ByteWriter& payload)>& write);

/// Validate a file image's framing and hand each section's checksummed
/// payload to `read(id, payload)`, in format order. A reader that leaves
/// payload bytes unconsumed fails decode.
void decode_framed(
    const FramedFormat& fmt, std::span<const std::uint8_t> bytes,
    const std::function<void(std::uint32_t id, ByteReader& payload)>& read);

/// Write `bytes` to `path` atomically (tmp file + rename).
void save_framed_file(const FramedFormat& fmt,
                      std::span<const std::uint8_t> bytes,
                      const std::string& path);

/// Read the whole file at `path`; a missing file or short read raises.
[[nodiscard]] std::vector<std::uint8_t> read_framed_file(
    const FramedFormat& fmt, const std::string& path);

}  // namespace loom::common
