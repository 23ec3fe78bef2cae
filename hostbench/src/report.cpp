#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace hostbench {

namespace {

constexpr const char* kPerMsg = "messages (one isend matched by one irecv) in the traced rounds";
constexpr const char* kPerCensusMsg = "messages in the census rounds";

// Layers in report order; core.timer has no entry because no workload arms
// a timer (acknowledgements are off, the paper's reliable-network mode).
constexpr Layer kReported[] = {
    Layer::kCollect,   Layer::kStratSubmit, Layer::kStratPack, Layer::kCorePump,
    Layer::kCoreSent,  Layer::kRx,          Layer::kDrvPost,   Layer::kDrvPoll,
    Layer::kSimEngine, Layer::kRealProgress, Layer::kWait,
};
constexpr Layer kWithP99[] = {Layer::kRx, Layer::kDrvPost, Layer::kCorePump};

}  // namespace

double unattributed_frac(const LayerInputs& in) noexcept {
  return ratio(in.traced_wall_ns - in.app_self_ns, in.traced_wall_ns);
}

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  std::vector<Metric> out;
  const auto msgs = static_cast<double>(in.msgs);
  const auto census = static_cast<double>(in.census_msgs);
  for (Layer l : kReported) {
    const std::string n = layer_name(l);
    const auto i = static_cast<std::size_t>(l);
    out.push_back({n + ".self_ns_per_msg",
                   ratio(static_cast<double>(in.totals[i].self_ns), msgs), "ns/msg",
                   kPerMsg});
    out.push_back({n + ".calls_per_msg",
                   ratio(static_cast<double>(in.census_calls[i]), census),
                   "calls/msg", kPerCensusMsg});
    out.push_back({n + ".allocs_per_msg",
                   ratio(static_cast<double>(in.census_allocs[i]), census),
                   "allocs/msg", kPerCensusMsg});
  }
  for (Layer l : kWithP99) {
    const auto i = static_cast<std::size_t>(l);
    const Percentile p99 = in.totals[i].self_hist.percentile(0.99);
    out.push_back({std::string(layer_name(l)) + ".self_ns_p99", p99.value, "ns", "",
                   p99.supported()});
  }
  const BoundaryCounts& c = in.counts;
  out.push_back({"strat.pack_hit_ratio",
                 ratio(static_cast<double>(c.plans), static_cast<double>(c.pack_calls)),
                 "ratio", "Strategy::try_pack calls"});
  out.push_back({"strat.segs_per_packet",
                 ratio(static_cast<double>(c.plan_segments), static_cast<double>(c.plans)),
                 "segs/packet", "packets the strategy returned"});
  out.push_back({"drv.bytes_per_packet",
                 ratio(static_cast<double>(c.wire_bytes), static_cast<double>(c.posts)),
                 "B/packet", "Driver::post_send calls"});
  out.push_back({"drv.wire_overhead",
                 ratio(static_cast<double>(c.wire_bytes),
                       static_cast<double>(in.payload_bytes)),
                 "ratio", "payload bytes the application sent"});
  out.push_back({"drv.poll_hit_ratio",
                 ratio(static_cast<double>(c.poll_hits), static_cast<double>(c.polls)),
                 "ratio", "Driver::progress calls"});
  for (std::size_t r = 0; r < kMaxRails; ++r) {
    out.push_back({"drv.rail" + std::to_string(r) + ".bytes_frac",
                   ratio(static_cast<double>(c.rail_wire_bytes[r]),
                         static_cast<double>(c.wire_bytes)),
                   "ratio", "frame bytes posted on all rails"});
  }
  out.push_back({"proto.pool_miss_ratio",
                 ratio(static_cast<double>(in.pool_misses),
                       static_cast<double>(in.pool_acquires)),
                 "ratio", "header and staging pool acquisitions"});
  out.push_back({"sim.events_per_msg", ratio(static_cast<double>(in.events), msgs),
                 "events/msg", kPerMsg});
  out.push_back({"sampling.s", in.sampling_s, "s", ""});
  out.push_back({"progress.stalls", static_cast<double>(in.progress_stalls), "count", ""});
  out.push_back({"progress.idle_rounds_per_msg",
                 ratio(static_cast<double>(c.idle_rounds), msgs), "rounds/msg", kPerMsg});
  const double progress_cpu = in.proc_cpu_ns - in.app_cpu_ns;
  out.push_back({"progress.thread_cpu_ns_per_msg", ratio(progress_cpu, msgs),
                 "ns/msg", kPerMsg});
  out.push_back({"progress.unattributed_ns_per_msg",
                 ratio(progress_cpu - in.progress_self_ns, msgs), "ns/msg", kPerMsg});
  out.push_back({"trace.unattributed_frac", unattributed_frac(in), "ratio",
                 "application-thread wall time of the traced rounds"});
  out.push_back({"trace.catchall_frac", ratio(in.app_catchall_ns, in.traced_wall_ns),
                 "ratio",
                 "application-thread wall time of the traced rounds (numerator: self "
                 "time of its wait, sim.engine and real.progress spans)"});
  out.push_back({"trace.overhead", ratio(in.traced_ns_per_msg, in.untraced_ns_per_msg),
                 "ratio", "untraced wall time per message"});
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a non-finite value is reported as 0 and
    // the run is already marked incorrect by its caller.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace hostbench
