#include "core/gate.hpp"

#include <algorithm>
#include <numeric>

#include "obs/registry.hpp"
#include "proto/wire.hpp"
#include "util/panic.hpp"

namespace nmad::core {

void Rail::Metrics::register_into(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.add(prefix + "packets_sent", &packets_sent);
  registry.add(prefix + "bytes_sent", &bytes_sent);
  registry.add(prefix + "small_payload_bytes", &small_payload_bytes);
  registry.add(prefix + "large_payload_bytes", &large_payload_bytes);
  registry.add(prefix + "pio_transfers", &pio_transfers);
  registry.add(prefix + "rdv_transfers", &rdv_transfers);
  registry.add(prefix + "control_packets", &control_packets);
  registry.add(prefix + "segments_sent", &segments_sent);
  registry.add(prefix + "aggregation_hits", &aggregation_hits);
  registry.add(prefix + "aggregation_misses", &aggregation_misses);
  registry.add(prefix + "nic_wakeups", &nic_wakeups);
  registry.add(prefix + "bytes_copied", &bytes_copied);
  registry.add(prefix + "allocs_hot_path", &allocs_hot_path);
  registry.add(prefix + "packet_size", &packet_size);
}

namespace {

/// Header blocks hold the packet header plus one SegHeader per aggregated
/// segment (strategies cap aggregation well below this); control packets
/// also fit. Rounded up so recycled blocks never regrow.
constexpr std::size_t kHeaderBlockCapacity = 2048;

}  // namespace

void Gate::AdaptiveMetrics::register_into(obs::MetricsRegistry& registry,
                                          const std::string& prefix) const {
  registry.add(prefix + "ratio_updates", &ratio_updates);
  registry.add(prefix + "ratio_holds", &ratio_holds);
}

Gate::Gate(GateId id, std::vector<drv::Driver*> drivers,
           std::unique_ptr<strat::Strategy> strategy, strat::StrategyConfig config)
    : id_(id), strategy_(std::move(strategy)), config_(config),
      header_pool_(kHeaderBlockCapacity),
      staging_pool_(config.aggregation_limit),
      estimator_(drivers.size(), config.adaptive) {
  NMAD_ASSERT(!drivers.empty(), "gate needs at least one rail");
  NMAD_ASSERT(strategy_ != nullptr, "gate needs a strategy");
  rails_.reserve(drivers.size());
  for (std::size_t i = 0; i < drivers.size(); ++i) {
    NMAD_ASSERT(drivers[i] != nullptr, "null driver in gate");
    rails_.emplace_back(*drivers[i], static_cast<RailIndex>(i));
    rail_order_.push_back(static_cast<RailIndex>(i));
  }

  small_threshold_ = rails_[0].caps().max_small_packet;
  double best_latency = rails_[0].caps().latency_us;
  std::vector<double> default_weights;
  for (const Rail& r : rails_) {
    small_threshold_ = std::min(small_threshold_, r.caps().max_small_packet);
    if (r.caps().latency_us < best_latency) {
      best_latency = r.caps().latency_us;
      fastest_rail_ = r.index();
    }
    default_weights.push_back(r.caps().bandwidth_mbps);
  }
  set_ratios(std::move(default_weights));
}

std::vector<strat::Contribution> Gate::take_contribs() {
  if (spare_contribs_.empty()) return {};
  std::vector<strat::Contribution> out = std::move(spare_contribs_.back());
  spare_contribs_.pop_back();
  return out;
}

void Gate::recycle_contribs(std::vector<strat::Contribution> contribs) {
  if (contribs.capacity() == 0) return;
  contribs.clear();
  spare_contribs_.push_back(std::move(contribs));
}

Gate::Incoming& Gate::incoming_at(MsgKey key) {
  auto it = incoming_.lower_bound(key);
  if (it != incoming_.end() && it->first == key) return it->second;
  if (spare_incoming_.empty()) {
    return incoming_.emplace_hint(it, key, Incoming{})->second;
  }
  IncomingTable::node_type node = std::move(spare_incoming_.back());
  spare_incoming_.pop_back();
  node.key() = key;
  return incoming_.insert(it, std::move(node))->second;
}

void Gate::erase_incoming(IncomingTable::iterator it) {
  IncomingTable::node_type node = incoming_.extract(it);
  node.mapped() = Incoming{};
  spare_incoming_.push_back(std::move(node));
}

Rail& Gate::rail(RailIndex i) {
  NMAD_ASSERT(i < rails_.size(), "rail index out of range");
  return rails_[i];
}

void Gate::recompute_fastest() {
  bool found = false;
  double best_latency = 0.0;
  for (const Rail& r : rails_) {
    if (!r.alive()) continue;
    if (!found || r.caps().latency_us < best_latency) {
      best_latency = r.caps().latency_us;
      fastest_rail_ = r.index();
      found = true;
    }
  }
  // No rail alive: leave the stale value; the gate is about to fail and
  // nothing consults fastest_rail() afterwards.
}

void Gate::set_ratios(std::vector<double> weights) {
  NMAD_ASSERT(weights.size() == rails_.size(), "one weight per rail required");
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  NMAD_ASSERT(sum > 0.0, "ratio weights must have positive sum");
  for (double& w : weights) {
    NMAD_ASSERT(w >= 0.0, "negative ratio weight");
    w /= sum;
  }
  ratios_ = std::move(weights);
  // These weights become the adaptive prior. Scale them into MB/s currency
  // (against the summed nominal capability bandwidth) so they blend with
  // the estimator's live MB/s figures; the overall scale cancels in the
  // final normalization, only cross-rail proportions matter.
  prior_ratios_ = ratios_;
  double total_caps = 0.0;
  for (const Rail& r : rails_) total_caps += r.caps().bandwidth_mbps;
  prior_mbps_.resize(ratios_.size());
  for (std::size_t i = 0; i < ratios_.size(); ++i) {
    prior_mbps_[i] = prior_ratios_[i] * total_caps;
    estimator_.publish_weight(static_cast<RailIndex>(i), ratios_[i]);
  }
}

void Gate::maybe_refresh_ratios(sim::TimeNs now) {
  const auto& cfg = config_.adaptive;
  if (!cfg.enabled || failed_) return;
  if (now - last_ratio_refresh_ < cfg.window_ns) return;
  last_ratio_refresh_ = now;
  auto derived = estimator_.derive_ratios(prior_mbps_, ratios_, now);
  if (!derived.has_value()) {
    adaptive_metrics.ratio_holds.inc();
  } else {
    ratios_ = std::move(*derived);
    adaptive_metrics.ratio_updates.inc();
    for (std::size_t i = 0; i < ratios_.size(); ++i) {
      estimator_.publish_weight(static_cast<RailIndex>(i), ratios_[i]);
    }
  }
  // Even on a hysteresis hold the *ordering* signals refresh: the pump's
  // rail-offer order (greedy strategies drain fast rails first) and the
  // fastest-rail pick for aggregated smalls follow the live estimates.
  std::vector<double> rates(rails_.size());
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    rates[i] =
        estimator_.effective_rate(static_cast<RailIndex>(i), prior_mbps_[i], now);
  }
  std::stable_sort(rail_order_.begin(), rail_order_.end(),
                   [&rates](RailIndex a, RailIndex b) {
                     return rates[a] > rates[b];
                   });

  // Fastest rail (eager/aggregation target): blend the capability latency
  // toward the measured rtt/2 by confidence. Without RTT samples (acks
  // off) this degrades to the capability figure, exactly the static pick.
  bool found = false;
  double best = 0.0;
  for (const Rail& r : rails_) {
    if (!r.alive()) continue;
    const double est_lat = estimator_.latency_us(r.index());
    double lat = r.caps().latency_us;
    if (est_lat > 0.0) {
      const double c = estimator_.confidence(r.index(), now);
      lat = (1.0 - c) * lat + c * est_lat;
    }
    if (!found || lat < best) {
      best = lat;
      fastest_rail_ = r.index();
      found = true;
    }
  }
}

double Gate::ratio(RailIndex i) const {
  NMAD_ASSERT(i < ratios_.size(), "ratio index out of range");
  return ratios_[i];
}

}  // namespace nmad::core
