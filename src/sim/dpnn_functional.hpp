// Functional DPNN engine: the bit-parallel twin of FunctionalLoomEngine.
// Models the IP units (16 MACs + adder tree per filter) over real layers,
// producing exact outputs and the wall-clock cycles of the baseline's
// window-sequential schedule — the ground truth the DPNN cycle model is
// cross-validated against.
//
// Values are computed by a registry backend (sim/backend.hpp) at full
// signed 16-bit precision for both operands (bit-identical to driving
// arch::IpUnit cycle by cycle); cycle counts follow the exact chunk
// schedule the scalar loop walks. Set DpnnFunctionalOptions::force_scalar
// or LOOM_FUNCTIONAL_SCALAR to drive the scalar IP units instead; the
// DpnnFunctionalOptions::backend / LOOM_FUNCTIONAL_BACKEND selection and
// the "auto" autotuner work exactly as on the Loom engine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/ip_unit.hpp"
#include "nn/network.hpp"
#include "nn/reference.hpp"
#include "nn/tensor.hpp"
#include "sim/backend.hpp"

namespace loom::sim {

struct DpnnFunctionalOptions {
  int act_lanes = 16;
  int filters = 8;
  bool relu = true;
  /// Worker threads for the word-parallel backends (0 = all, 1 = serial).
  int jobs = 0;
  /// Force the scalar arch::IpUnit oracle (also: LOOM_FUNCTIONAL_SCALAR=1).
  bool force_scalar = false;
  /// Kernel selection, as FunctionalOptions::backend: "" defers to
  /// LOOM_FUNCTIONAL_BACKEND, then "auto". "scalar" selects the IpUnit
  /// oracle (DPNN's own scalar semantics, not the registry's SIP grid).
  std::string backend = {};
};

struct DpnnFunctionalRun {
  std::string name;
  nn::Tensor output;
  nn::WideTensor wide;
  std::uint64_t cycles = 0;
  int requant_shift = 0;
};

class FunctionalDpnnEngine {
 public:
  explicit FunctionalDpnnEngine(DpnnFunctionalOptions opts = {});

  [[nodiscard]] DpnnFunctionalRun run_conv(const nn::Layer& layer,
                                           const nn::Tensor& input,
                                           const nn::Tensor& weights,
                                           int out_bits);
  [[nodiscard]] DpnnFunctionalRun run_fc(const nn::Layer& layer,
                                         const nn::Tensor& input,
                                         const nn::Tensor& weights,
                                         int out_bits);

  /// Batched variants: one coalesced word-parallel pass over N same-shape
  /// requests (the scalar oracle runs them one by one; the solo calls above
  /// are batches of one). Each returned
  /// run is byte-identical to the corresponding solo run — the DPNN
  /// baseline's window-sequential schedule is data-independent, so even the
  /// per-request cycle counts match solo execution exactly.
  [[nodiscard]] std::vector<DpnnFunctionalRun> run_conv_batch(
      const nn::Layer& layer, std::span<const nn::Tensor> inputs,
      const nn::Tensor& weights, int out_bits);
  [[nodiscard]] std::vector<DpnnFunctionalRun> run_fc_batch(
      const nn::Layer& layer, std::span<const nn::Tensor> inputs,
      const nn::Tensor& weights, int out_bits);

  [[nodiscard]] const DpnnFunctionalOptions& options() const noexcept {
    return opts_;
  }
  /// "scalar", "auto", or a concrete registered backend name; resolved at
  /// construction like FunctionalLoomEngine (force_scalar, the environment
  /// hatches, or an unpackable configuration select the scalar oracle).
  [[nodiscard]] const std::string& backend_name() const noexcept {
    return layers_.resolved();
  }

 private:
  /// The scalar oracle: drive the IpUnits cycle by cycle over one request.
  /// Returns the cycles it counted.
  std::uint64_t ip_unit_conv(const nn::Layer& layer, const nn::Tensor& input,
                             const nn::Tensor& weights,
                             nn::WideTensor& wide) const;
  std::uint64_t ip_unit_fc(const nn::Layer& layer, const nn::Tensor& input,
                           const nn::Tensor& weights,
                           nn::WideTensor& wide) const;

  DpnnFunctionalOptions opts_;
  /// Registry kernels; resolved "scalar" selects the IpUnit loops instead.
  LayerDispatcher layers_;
};

}  // namespace loom::sim
