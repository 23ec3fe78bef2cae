// Turning raw counts into the reported metrics, and the result line.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "traced.hpp"

namespace hostbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// What a ratio or per-message figure is divided by; empty only for
  /// plain measurements (a time, a size, a count).
  std::string base;
  /// False for a percentile that breaks the percentile rule (stats.hpp);
  /// the run is then incorrect.
  bool supported = true;
};

/// Divide, with 0 for an empty base (a layer the workload never enters).
[[nodiscard]] inline double ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

/// Everything the traced run measured, before normalisation.
struct LayerInputs {
  std::uint64_t msgs = 0;         ///< messages (isends) in the traced rounds
  std::uint64_t census_msgs = 0;  ///< messages in the census rounds
  std::uint64_t payload_bytes = 0;
  /// Per layer, summed over every thread's ledger: all traced rounds.
  std::array<LayerTotals, kLayerCount> totals{};
  /// Per layer, the census rounds only (exact counts on serial workloads).
  std::array<std::uint64_t, kLayerCount> census_calls{};
  std::array<std::uint64_t, kLayerCount> census_allocs{};
  BoundaryCounts counts;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_acquires = 0;
  std::uint64_t events = 0;
  double sampling_s = 0.0;
  std::uint64_t progress_stalls = 0;
  double proc_cpu_ns = 0.0;       ///< process CPU over the traced rounds
  double app_cpu_ns = 0.0;        ///< the application thread's share
  double app_self_ns = 0.0;       ///< self time of its spans
  double app_catchall_ns = 0.0;   ///< ... of its kCatchAllLayers spans
  double progress_self_ns = 0.0;  ///< self time of spans on other threads
  double traced_wall_ns = 0.0;
  double traced_ns_per_msg = 0.0;
  double untraced_ns_per_msg = 0.0;
};

/// The per-layer metrics, in BENCHMARK.json order.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const LayerInputs& in);

/// Share of the application thread's wall time its spans leave
/// unattributed — the ledger gate compares it with kMaxUnattributed.
[[nodiscard]] double unattributed_frac(const LayerInputs& in) noexcept;
inline constexpr double kMaxUnattributed = 0.15;

/// Spans that enclose whole library calls rather than one layer: library
/// time no named layer claims still counts as their self time, so the
/// ledger gate only bounds time outside every span. trace.catchall_frac
/// reports their share next to it.
inline constexpr Layer kCatchAllLayers[] = {Layer::kWait, Layer::kSimEngine,
                                            Layer::kRealProgress};

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace hostbench
