// TwoNodePlatform: convenience assembly of the paper's experimental setup —
// two hosts, N heterogeneous NIC links between them, one Session per host,
// and one gate per direction, all over one simulated world.
//
// MultiNodePlatform generalizes it beyond the paper's testbed: N hosts in a
// full mesh (one Session per host, one gate per peer, the same multi-rail
// link set on every edge), optionally with every rail endpoint wrapped in a
// ChaosDriver — the topology the collectives layer (src/coll/) runs on.
//
// These are the objects benchmarks, tests and examples construct; they are
// equivalent to hand-assembling a SimWorld, drivers and Sessions.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/progress.hpp"
#include "core/session.hpp"
#include "drv/chaos_driver.hpp"
#include "drv/sim_world.hpp"
#include "netmodel/nic_profile.hpp"
#include "obs/metrics.hpp"
#include "util/panic.hpp"

namespace nmad::core {

struct PlatformConfig {
  netmodel::HostProfile host_a{};
  netmodel::HostProfile host_b{};
  /// One NIC profile per rail connecting the two hosts.
  std::vector<netmodel::NicProfile> links;
  /// Strategy installed on both gates (see strat::make_strategy).
  std::string strategy = "single_rail";
  strat::StrategyConfig strat_cfg{};
  /// Run boot-time sampling (in a scratch world) and install the measured
  /// per-rail bandwidth weights as the gates' split ratios — the paper's
  /// §3.4 initialization step. Without it, ratios default to the drivers'
  /// nominal capability bandwidths.
  bool sampled_ratios = false;
  /// Optional sampling cache file (real nmad persists its sampling data):
  /// when set and sampled_ratios is true, a valid cache with one entry per
  /// rail is loaded instead of re-measuring, and fresh measurements are
  /// saved back to it.
  std::string sampling_cache_path;
  /// Progression mode. kDefault follows NMAD_PROGRESS_MODE (else serial);
  /// pin kSerial explicitly in tests that rely on serial determinism
  /// (aggregation-window counts, exact event traces) so they stay correct
  /// when the suite runs with NMAD_PROGRESS_MODE=threaded.
  ProgressMode progress_mode = ProgressMode::kDefault;
  /// Per-thread submission-ring capacity in threaded mode; 0 =
  /// NMAD_SUBMIT_RING_CAP, else the engine default. Benches that inject
  /// bursts larger than the default ring size raise it instead of spinning
  /// on backpressure.
  std::size_t submit_ring_capacity = 0;
};

class TwoNodePlatform {
 public:
  explicit TwoNodePlatform(PlatformConfig config);
  ~TwoNodePlatform();
  TwoNodePlatform(const TwoNodePlatform&) = delete;
  TwoNodePlatform& operator=(const TwoNodePlatform&) = delete;

  [[nodiscard]] Session& a() noexcept { return *session_a_; }
  [[nodiscard]] Session& b() noexcept { return *session_b_; }
  /// Gate id of a's gate towards b (and vice versa); both are 0.
  [[nodiscard]] GateId gate_ab() const noexcept { return gate_ab_; }
  [[nodiscard]] GateId gate_ba() const noexcept { return gate_ba_; }

  [[nodiscard]] drv::SimWorld& world() noexcept { return *world_; }
  [[nodiscard]] sim::TimeNs now() const noexcept { return world_->now(); }
  [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }
  /// The mode the platform actually runs (config resolved against the
  /// NMAD_PROGRESS_MODE environment): kSerial or kThreaded.
  [[nodiscard]] ProgressMode progress_mode() const noexcept { return mode_; }

  /// Rail endpoints on each side, in link order.
  [[nodiscard]] const std::vector<drv::SimDriver*>& rails_a() const noexcept {
    return rails_a_;
  }
  [[nodiscard]] const std::vector<drv::SimDriver*>& rails_b() const noexcept {
    return rails_b_;
  }

 private:
  PlatformConfig config_;
  ProgressMode mode_ = ProgressMode::kSerial;
  std::unique_ptr<drv::SimWorld> world_;
  std::vector<drv::SimDriver*> rails_a_;
  std::vector<drv::SimDriver*> rails_b_;
  std::unique_ptr<Session> session_a_;
  std::unique_ptr<Session> session_b_;
  GateId gate_ab_ = 0;
  GateId gate_ba_ = 0;
};

/// The paper's platform (§3.1): Myri-10G + Quadrics QM500 between two
/// Opteron hosts, with the given strategy.
PlatformConfig paper_platform(std::string strategy,
                              strat::StrategyConfig cfg = {});

// --- N-node platform --------------------------------------------------------

struct MultiNodeConfig {
  /// Number of nodes (ranks); every connected pair gets its own rail set.
  std::size_t nodes = 3;
  netmodel::HostProfile host{};
  /// NIC profiles of the rails on every edge. Empty = the paper's pair
  /// (Myri-10G + Quadrics QM500).
  std::vector<netmodel::NicProfile> links;
  /// Locality labels: hosts[i] is node i's host id (any integers). Must be
  /// empty (every node its own host — the historical homogeneous world) or
  /// exactly `nodes` long. Same-host edges use intra_host_links; the
  /// collectives layer derives its hierarchy Topology from these labels
  /// (see coll/topology.hpp and make_communicator).
  std::vector<std::size_t> hosts;
  /// Rail set of same-host (intra-domain) edges; empty = `links`. Lets a
  /// heterogeneous world give co-hosted ranks fast rails while cross-host
  /// edges ride the slow ones — the asymmetry hierarchical collectives
  /// exploit.
  std::vector<netmodel::NicProfile> intra_host_links;
  std::string strategy = "aggreg_greedy";
  strat::StrategyConfig strat_cfg{};
  /// See PlatformConfig::progress_mode.
  ProgressMode progress_mode = ProgressMode::kDefault;
  /// See PlatformConfig::submit_ring_capacity.
  std::size_t submit_ring_capacity = 0;
  /// When non-empty, only these undirected node pairs get links and gates
  /// (sparse mesh) — entries are normalized to {min, max}; self-loops,
  /// out-of-range endpoints and duplicates are rejected (panic). Empty
  /// keeps the historical full mesh. The pattern sweep harness
  /// (bench/pattern_gen.cpp) uses this so a 16-rank point builds only the
  /// edges its pair set touches instead of all O(N^2) of them; gate(i, j)
  /// asserts on unconnected pairs, has_gate(i, j) probes them.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  /// Lazy establishment: construct no sessions and no edges up front —
  /// each Session and each edge's rails, guards and gates are created on
  /// first use (session(i) / ensure_gate(i, j); coll::Communicator
  /// resolves peers through the latter), plus any `edges` named above
  /// eagerly. A 512-rank world then costs O(edges actually used) instead
  /// of the full mesh's O(N^2). See docs/SCALING.md for the cost model.
  bool lazy = false;
  /// When set, every rail endpoint is wrapped in a ChaosDriver with this
  /// fault configuration (seeded from chaos_seed). The platform's progress
  /// paths then flush the chaos windows on quiescence, exactly like the
  /// two-party chaos tests.
  std::optional<drv::ChaosConfig> chaos;
  std::uint64_t chaos_seed = 1;
};

/// N sessions over one simulated world: session(i) owns one gate per
/// connected peer, each bundling the edge's rails on a dedicated physical
/// link. Fully meshed by default, sparse with config.edges, and on-demand
/// with config.lazy (sessions and edges created on first use). Gate ids
/// are exposed via gate(i, j); the flat per-peer vector gates_from(i) is
/// the shape coll::Communicator consumes (kNoGate entries resolve lazily
/// through ensure_gate).
class MultiNodePlatform {
 public:
  explicit MultiNodePlatform(MultiNodeConfig config);
  ~MultiNodePlatform();
  MultiNodePlatform(const MultiNodePlatform&) = delete;
  MultiNodePlatform& operator=(const MultiNodePlatform&) = delete;

  [[nodiscard]] std::size_t nodes() const noexcept { return config_.nodes; }
  /// Node i's session, created on first use in lazy worlds.
  [[nodiscard]] Session& session(std::size_t i);
  /// Node i's gate towards node j (i != j); asserts the edge exists.
  [[nodiscard]] GateId gate(std::size_t i, std::size_t j) const noexcept {
    NMAD_ASSERT(gate_[i][j] != kNoGate, "no gate: edge not in the mesh");
    return gate_[i][j];
  }
  /// Whether the (possibly sparse or lazy) mesh has established the edge
  /// between nodes i and j.
  [[nodiscard]] bool has_gate(std::size_t i, std::size_t j) const noexcept {
    return i != j && gate_[i][j] != kNoGate;
  }
  /// Peer-indexed gate vector for node i; entry [i] itself is unused, and
  /// sparse/lazy meshes carry kNoGate for unconnected peers.
  [[nodiscard]] std::vector<GateId> gates_from(std::size_t i) const {
    return gate_[i];
  }
  /// Lazy worlds: node i's gate towards node j, establishing the edge
  /// (rails, guards, gates on both endpoints — and the sessions
  /// themselves if missing) on first use. Thread-safe against running
  /// the progress thread: establishment happens under the world progress
  /// mutex. Non-lazy worlds assert the edge already exists.
  GateId ensure_gate(std::size_t i, std::size_t j);

  /// Edges established so far (eager + lazy) and the lazily-created
  /// subset. Plain counts, valid with NMAD_METRICS=OFF; mirrored as the
  /// platform.sessions_established / platform.sessions_lazy_created
  /// metrics.
  [[nodiscard]] std::size_t established_edges() const noexcept {
    return established_edges_;
  }
  [[nodiscard]] std::size_t lazy_edges() const noexcept { return lazy_edges_; }

  [[nodiscard]] drv::SimWorld& world() noexcept { return *world_; }
  [[nodiscard]] sim::TimeNs now() const noexcept { return world_->now(); }
  [[nodiscard]] const MultiNodeConfig& config() const noexcept { return config_; }
  [[nodiscard]] ProgressMode progress_mode() const noexcept { return mode_; }

  /// Serial mode only: drive the engine from the calling thread until
  /// `pred` holds, flushing chaos windows whenever the engine drains.
  /// Returns false on global quiescence with `pred` still unmet (the
  /// communication pattern cannot complete — e.g. a peer's gate died).
  bool run_until(const std::function<bool()>& pred);

  /// Release every buffered chaos frame; returns true if any was held.
  /// No-op (false) when chaos is not configured.
  bool flush_chaos();

  /// Chaos endpoint of node `node` on physical link `link` of edge
  /// {node, peer}. Only valid when config().chaos is set.
  [[nodiscard]] drv::ChaosDriver& chaos_endpoint(std::size_t node,
                                                 std::size_t peer,
                                                 std::size_t link);
  /// Raw simulated endpoint of node `node` on `link` of edge {node, peer}
  /// (the SimDriver underneath any chaos wrapper) — the handle NetScenario
  /// link shaping needs (tx_link()). Asserts the edge exists.
  [[nodiscard]] drv::SimDriver& sim_endpoint(std::size_t node,
                                             std::size_t peer,
                                             std::size_t link);
  /// Hard-kill both endpoints of one physical link of edge {i, j}.
  void kill_link(std::size_t i, std::size_t j, std::size_t link);

  /// Register every session's metrics under "n<i>." prefixes.
  void register_metrics(obs::MetricsRegistry& registry);

 private:
  /// Create session i if missing (lazy worlds; threaded sessions attach to
  /// the world's progress thread immediately).
  Session& ensure_session(std::size_t i);
  /// Create the rails, chaos wrappers and both gates of edge {i, j}.
  /// Callers in threaded mode must hold the world progress mutex.
  void establish_edge(std::size_t i, std::size_t j, bool lazily);
  /// Host id of node i (hosts[i], or i itself when hosts is empty).
  [[nodiscard]] std::size_t host_of(std::size_t i) const noexcept {
    return config_.hosts.empty() ? i : config_.hosts[i];
  }

  MultiNodeConfig config_;
  ProgressMode mode_ = ProgressMode::kSerial;
  std::unique_ptr<drv::SimWorld> world_;
  std::vector<drv::NodeId> node_ids_;
  /// Chaos wrappers (empty without chaos). Declared before sessions_ so
  /// they outlive the schedulers their deliver upcalls target; the
  /// destructor drains them while the sessions are still alive.
  std::vector<std::unique_ptr<drv::ChaosDriver>> wrappers_;
  /// Next chaos wrapper seed (dense per-endpoint seeding, stable across
  /// eager and lazy establishment order).
  std::uint64_t chaos_next_seed_ = 0;
  /// endpoint_[i][j][link]: node i's driver on that link of edge {i, j}
  /// (the chaos wrapper when chaos is configured); empty vector when the
  /// edge is not (yet) established.
  std::vector<std::vector<std::vector<drv::Driver*>>> endpoint_;
  /// The raw SimDrivers underneath, same indexing.
  std::vector<std::vector<std::vector<drv::SimDriver*>>> sim_endpoint_;
  /// Null entries are sessions a lazy world has not created yet.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::vector<GateId>> gate_;
  std::size_t established_edges_ = 0;
  std::size_t lazy_edges_ = 0;
  obs::Counter sessions_established_;
  obs::Counter sessions_lazy_created_;
};

/// `cfg` pinned to serial progression regardless of NMAD_PROGRESS_MODE.
/// For tests and benches that assert serial determinism: exact aggregation
/// windows, trace contents, virtual-time values, or that step the sim
/// engine from the application thread (racy with the progress thread live).
[[nodiscard]] inline PlatformConfig pin_serial(PlatformConfig cfg) {
  cfg.progress_mode = ProgressMode::kSerial;
  return cfg;
}

}  // namespace nmad::core
