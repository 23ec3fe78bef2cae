// The collectives layer: group operations composed from the multi-rail
// point-to-point engine.
//
// A coll::Communicator binds one rank of an N-party group to a Session and
// one gate per peer. The algorithms (binomial-tree broadcast and reduce,
// reduce+broadcast allreduce, dissemination barrier — see bcast.hpp,
// reduce.hpp, barrier.hpp) are built purely from Session::isend/irecv, so
// every segment of a collective flows through the normal strategy backlog:
// large segments are split across rails by the installed strategy and
// collectives inherit the paper's bandwidth aggregation for free, with no
// special-cased path anywhere below this layer.
//
// Non-blocking by design: every operation returns a CollHandle — a small
// state machine that posts the next round of sends/receives whenever
// try_advance() observes the previous round settling. A blocking wrapper
// exists (Communicator::wait and the bcast/reduce/... conveniences), but
// simulation tests drive N ranks from one thread, which only works with
// handles: post one op per rank, then coll::wait_all() round-robins
// advancement while pumping the shared engine.
//
// Tag discipline: the communicator carves per-instance tag streams out of
// the reserved space [core::kReservedTagBase, 0xffffffff]. Each algorithm
// owns a 0x1000-tag window and the k-th instance of an algorithm uses the
// k-th tag of its window (mod the window size), so concurrent collectives
// never cross-match as long as (a) every rank issues collectives on a
// communicator in the same order — the usual MPI rule — and (b) no more
// than 0x1000 instances of one algorithm are in flight at once.
//
// Failure semantics: a dead rail is invisible here (the rail guard fails
// over and the strategy re-splits; the collective just slows down). A dead
// *gate* (every rail lost) fails the constituent requests, which marks the
// operation failed; ranks whose own gates are healthy but whose peers died
// are released by the wait_all driver's quiescence/stall detection. A
// collective degrades or fails — it never hangs.
//
// Thread model: one thread drives a communicator and its handles
// (try_advance posts sends/receives and mutates op state). Request
// completion flags are atomics, so this composes with threaded progression:
// the app thread polls/advances while the progress thread settles requests.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "coll/topology.hpp"
#include "core/request_group.hpp"
#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "util/panic.hpp"

namespace nmad::core {
class MultiNodePlatform;
}  // namespace nmad::core

namespace nmad::coll {

class Communicator;

/// Combines one received contribution into the accumulator (both spans have
/// the same length): acc = acc OP in. Must be deterministic; the layer
/// guarantees a deterministic combine order (children in increasing
/// binomial-mask order), so floating-point reductions are reproducible for
/// a fixed (size, root) even though the order differs from a serial scan.
using CombineFn = void (*)(std::span<const std::byte> in,
                           std::span<std::byte> acc);

/// Built-in elementwise reductions for trivially copyable arithmetic types.
enum class ReduceKind : std::uint8_t { kSum, kMin, kMax, kBxor };

/// The CombineFn implementing `kind` over elements of type T. Buffers may
/// be unaligned (they are raw byte spans); elements are memcpy'd.
template <typename T>
  requires std::is_arithmetic_v<T>
[[nodiscard]] CombineFn combine_fn(ReduceKind kind) {
  auto make = []<ReduceKind K>() -> CombineFn {
    return +[](std::span<const std::byte> in, std::span<std::byte> acc) {
      for (std::size_t off = 0; off + sizeof(T) <= acc.size(); off += sizeof(T)) {
        T a, b;
        std::memcpy(&a, acc.data() + off, sizeof(T));
        std::memcpy(&b, in.data() + off, sizeof(T));
        if constexpr (K == ReduceKind::kSum) {
          a = static_cast<T>(a + b);
        } else if constexpr (K == ReduceKind::kMin) {
          a = b < a ? b : a;
        } else if constexpr (K == ReduceKind::kMax) {
          a = b > a ? b : a;
        } else {
          static_assert(K == ReduceKind::kBxor);
          if constexpr (std::is_integral_v<T>) a = static_cast<T>(a ^ b);
        }
        std::memcpy(acc.data() + off, &a, sizeof(T));
      }
    };
  };
  switch (kind) {
    case ReduceKind::kSum: return make.template operator()<ReduceKind::kSum>();
    case ReduceKind::kMin: return make.template operator()<ReduceKind::kMin>();
    case ReduceKind::kMax: return make.template operator()<ReduceKind::kMax>();
    case ReduceKind::kBxor:
      NMAD_ASSERT(std::is_integral_v<T>,
                  "bitwise xor needs an integral element type");
      return make.template operator()<ReduceKind::kBxor>();
  }
  return nullptr;
}

struct CollConfig {
  /// Large payloads are chopped into independent messages of at most this
  /// many bytes (rounded down to the element size for reductions), so
  /// intermediate tree ranks forward segment k while segment k+1 is still
  /// arriving — pipelining down the tree — and each segment is re-split
  /// across rails by the strategy. 0 disables segmentation.
  std::uint32_t segment_bytes = 256 * 1024;
  /// First tag this communicator may use; must be inside the reserved
  /// space. Give distinct bases to communicators sharing gates.
  core::Tag tag_base = core::kReservedTagBase;
  /// Compose two-level hierarchy trees (coll/topology.hpp) when the
  /// communicator carries a non-flat Topology. Off forces the flat
  /// binomial shapes even on heterogeneous worlds — the comparison arm of
  /// bench/coll_scale, and a safety hatch. All ranks must agree.
  bool hierarchical = true;
};

/// Per-communicator counters (compiled out with NMAD_METRICS=OFF).
struct CollMetrics {
  obs::Counter bcast_ops, reduce_ops, allreduce_ops, barrier_ops;
  /// Payload bytes this rank sent inside each algorithm (allreduce counts
  /// both of its phases).
  obs::Counter bcast_bytes, reduce_bytes, allreduce_bytes;
  /// Segment messages posted (sends) by collective ops on this rank.
  obs::Counter segments_sent;
  /// Communication rounds this rank executed: tree edges it sent or
  /// received on, and dissemination rounds of barriers.
  obs::Counter rounds;
  obs::Counter completed_ops, failed_ops;
  /// Depth of the last tree-shaped operation (high-water = deepest seen).
  obs::Gauge tree_depth;
  /// Hierarchy levels of the last tree-shaped operation: 1 = flat
  /// binomial, 2 = intra-domain + inter-domain composition.
  obs::Gauge levels;
  /// Tree-edge sends split by locality: within this rank's domain (fast
  /// rails) vs. across domains (slow rails). Only counted when a non-flat
  /// Topology is installed.
  obs::Counter level_intra_sends, level_inter_sends;

  void register_into(obs::MetricsRegistry& registry,
                     const std::string& prefix) const;
};

/// Which algorithm an op accounts its traffic to (allreduce passes itself
/// down to its two phases).
enum class Algo : std::uint8_t { kBcast, kReduce, kAllreduce, kBarrier };

/// Base of every collective state machine. Created by Communicator::i*();
/// the owner polls try_advance() until done(), typically via wait_all().
class CollOp {
 public:
  virtual ~CollOp() = default;
  CollOp(const CollOp&) = delete;
  CollOp& operator=(const CollOp&) = delete;

  /// Poll: observe settled requests, post the next round(s). Returns true
  /// if any state changed. Must be called from the single driving thread.
  bool try_advance();

  /// Settled (completed or failed) — the state waits terminate on.
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] bool completed() const noexcept { return done_ && !failed_; }

  /// Give up: mark the op failed and stop posting. Used by the wait_all
  /// driver when the world is quiescent/stalled with the op unfinished
  /// (e.g. a peer's gate died and its messages will never arrive).
  void abort();

  /// Monotonic change counter — the driver's progress detector.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Every request this op posted so far (multi-gate group). Exposed for
  /// the blocking fallback path, which parks in Session::wait_group.
  [[nodiscard]] const core::RequestGroup& requests() const noexcept {
    return group_;
  }

  /// Internal: exclude this op from the completed/failed op counters — it
  /// is a phase of a composite (allreduce), which counts itself.
  void mark_subsidiary() noexcept { subsidiary_ = true; }

 protected:
  explicit CollOp(Communicator& comm, Algo algo) : comm_(&comm), algo_(algo) {}

  /// One poll pass; return true iff state changed. try_advance() loops
  /// until a pass changes nothing.
  virtual bool step() = 0;
  /// Extra teardown on abort() (e.g. aborting sub-ops).
  virtual void on_abort() {}

  /// Settle the op (updates completed/failed counters). Idempotent-free:
  /// callers must not finish twice (try_advance stops stepping once done).
  void finish(bool ok);

  core::SendHandle post_send(std::size_t peer, core::Tag tag,
                             std::span<const std::byte> data);
  core::RecvHandle post_recv(std::size_t peer, core::Tag tag,
                             std::span<std::byte> buffer);

  Communicator* comm_;
  Algo algo_;
  core::RequestGroup group_;

 private:
  bool done_ = false;
  bool failed_ = false;
  bool subsidiary_ = false;
  std::uint64_t version_ = 0;
};

using CollHandle = std::shared_ptr<CollOp>;

/// How wait_all() pumps the world while it round-robins try_advance().
struct DriveHooks {
  /// Serial mode: drive the shared engine until `pred` holds; return false
  /// on global quiescence with `pred` still unmet (see
  /// core::MultiNodePlatform::run_until). Unused in threaded mode.
  std::function<bool(const std::function<bool()>&)> run_until;
  /// Threaded mode: a session of the world (the rank's own, normally).
  /// The progress thread owns the engine, so wait_all parks on this
  /// session's completion doorbell under a wall-clock stall watchdog.
  core::Session* threaded_session = nullptr;
  /// Threaded stall budget: if no handle advances for this long, the
  /// remaining ops are aborted (a dead peer must degrade, not hang).
  std::uint64_t stall_ms = 5000;
};

/// Drive every handle to settlement: round-robin try_advance() while
/// pumping the engine (serial) or parking between completions under a
/// stall watchdog (threaded). On global quiescence/stall, unfinished ops
/// are aborted.
/// Returns true iff every op completed successfully.
bool wait_all(std::span<const CollHandle> ops, const DriveHooks& hooks);

/// Resolves a peer rank to a gate on first use — the lazy-session hook: a
/// Communicator over a lazy MultiNodePlatform starts with kNoGate entries
/// and the resolver (platform.ensure_gate) establishes the edge on demand.
using GateResolver = std::function<core::GateId(std::size_t peer)>;

class Communicator {
 public:
  /// Bind rank `rank` of an N-party group: peer_gates[r] is this session's
  /// gate towards rank r (entry [rank] is ignored; kNoGate entries are
  /// resolved on first use when a GateResolver is installed). All ranks
  /// must agree on size, config and the order they issue collectives in.
  Communicator(core::Session& session, std::vector<core::GateId> peer_gates,
               std::size_t rank, CollConfig config = {});

  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }
  [[nodiscard]] std::size_t size() const noexcept { return gates_.size(); }
  [[nodiscard]] core::Session& session() noexcept { return *session_; }
  /// Gate towards `peer`, resolving (and memoizing) kNoGate entries
  /// through the installed GateResolver — the point where a lazy platform
  /// actually establishes the edge.
  [[nodiscard]] core::GateId gate_to(std::size_t peer) {
    core::GateId& g = gates_[peer];
    if (g == core::kNoGate && resolver_) g = resolver_(peer);
    return g;
  }
  [[nodiscard]] const CollConfig& config() const noexcept { return config_; }

  /// Install the lazy-edge resolver (see GateResolver).
  void set_gate_resolver(GateResolver resolver) {
    resolver_ = std::move(resolver);
  }
  /// Install the locality descriptor hierarchical trees compose over.
  /// All ranks must install the identical topology (each computes only its
  /// own TreeShape from it). Null, a flat() topology, or
  /// config.hierarchical=false keep the flat binomial shapes.
  void set_topology(std::shared_ptr<const Topology> topology) {
    NMAD_ASSERT(!topology || topology->size() == size(),
                "topology size does not match the communicator");
    topology_ = std::move(topology);
  }
  /// The installed topology when hierarchical composition is active, else
  /// nullptr (flat shapes).
  [[nodiscard]] const Topology* topology() const noexcept {
    return config_.hierarchical && topology_ && !topology_->flat()
               ? topology_.get()
               : nullptr;
  }
  /// This rank's shape in the tree rooted at `root`: the two-level
  /// hierarchy composition when a non-flat topology is active, else the
  /// flat binomial tree.
  [[nodiscard]] TreeShape tree(std::size_t root) const {
    if (const Topology* topo = topology()) {
      return hierarchy_tree(rank_, root, *topo);
    }
    return binomial_tree(rank_, root, size());
  }

  // --- non-blocking collectives -------------------------------------------
  /// Broadcast `buffer` from rank `root` to every rank. The span must stay
  /// valid (and, on non-roots, writable) until the handle settles.
  [[nodiscard]] CollHandle ibcast(std::span<std::byte> buffer, std::size_t root);

  /// Elementwise reduction to `root`: combines every rank's `contrib`
  /// (deterministic order) into `result`. `result` must be contrib-sized
  /// on the root; on other ranks it may be empty (internal scratch is
  /// used) or contrib-sized (used as scratch, cheaper). Segment boundaries
  /// are aligned to `elem_size`.
  [[nodiscard]] CollHandle ireduce(std::span<const std::byte> contrib,
                                   std::span<std::byte> result,
                                   std::size_t root, CombineFn combine,
                                   std::uint32_t elem_size = 1);

  /// Reduce-to-0 then broadcast: every rank ends with the full reduction
  /// in `result` (contrib-sized everywhere).
  [[nodiscard]] CollHandle iallreduce(std::span<const std::byte> contrib,
                                      std::span<std::byte> result,
                                      CombineFn combine,
                                      std::uint32_t elem_size = 1);

  /// Dissemination barrier: completes once every rank entered (posted its
  /// ibarrier). ceil(log2 N) rounds of zero-byte tokens.
  [[nodiscard]] CollHandle ibarrier();

  // --- typed convenience ----------------------------------------------------
  template <typename T>
    requires std::is_arithmetic_v<T>
  [[nodiscard]] CollHandle ireduce(std::span<const T> contrib,
                                   std::span<T> result, std::size_t root,
                                   ReduceKind kind) {
    return ireduce(std::as_bytes(contrib), std::as_writable_bytes(result),
                   root, combine_fn<T>(kind), sizeof(T));
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  [[nodiscard]] CollHandle iallreduce(std::span<const T> contrib,
                                      std::span<T> result, ReduceKind kind) {
    return iallreduce(std::as_bytes(contrib), std::as_writable_bytes(result),
                      combine_fn<T>(kind), sizeof(T));
  }

  // --- blocking wrappers ----------------------------------------------------
  /// Drive one handle to settlement: via the installed DriveHooks when
  /// set, else by parking in Session::wait_group between advances (works
  /// wherever Session::wait works — i.e. whenever the other ranks are
  /// concurrently making progress). Returns true iff the op completed.
  bool wait(const CollHandle& op);
  bool bcast(std::span<std::byte> buffer, std::size_t root) {
    return wait(ibcast(buffer, root));
  }
  bool reduce(std::span<const std::byte> contrib, std::span<std::byte> result,
              std::size_t root, CombineFn combine, std::uint32_t elem_size = 1) {
    return wait(ireduce(contrib, result, root, combine, elem_size));
  }
  bool allreduce(std::span<const std::byte> contrib, std::span<std::byte> result,
                 CombineFn combine, std::uint32_t elem_size = 1) {
    return wait(iallreduce(contrib, result, combine, elem_size));
  }
  bool barrier() { return wait(ibarrier()); }

  /// Install the drive hooks blocking wrappers use (see hooks_for()).
  void set_drive_hooks(DriveHooks hooks) { hooks_ = std::move(hooks); }
  [[nodiscard]] const DriveHooks& drive_hooks() const noexcept { return hooks_; }

  // --- observability --------------------------------------------------------
  [[nodiscard]] const CollMetrics& metrics() const noexcept { return metrics_; }
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "coll.") const {
    metrics_.register_into(registry, prefix);
  }

 private:
  friend class CollOp;
  friend class BcastOp;
  friend class ReduceOp;
  friend class AllreduceOp;
  friend class BarrierOp;

  /// Per-instance tag: the k-th instance of `algo` gets the k-th tag of
  /// the algorithm's 0x1000-tag window. `stream` distinguishes allreduce's
  /// two phases (0 = combine, 1 = distribute).
  [[nodiscard]] core::Tag next_tag(Algo algo, std::size_t stream = 0);

  core::Session* session_;
  std::vector<core::GateId> gates_;
  std::size_t rank_;
  CollConfig config_;
  std::shared_ptr<const Topology> topology_;
  GateResolver resolver_;
  DriveHooks hooks_;
  CollMetrics metrics_;
  /// Instance counters, one per tag stream (4 algorithms + allreduce's
  /// second phase).
  std::uint32_t instance_[5] = {};
};

/// Communicator for rank `rank` of a MultiNodePlatform, with drive hooks
/// matching the platform's progress mode already installed.
[[nodiscard]] Communicator make_communicator(core::MultiNodePlatform& platform,
                                             std::size_t rank,
                                             CollConfig config = {});

/// Drive hooks for a MultiNodePlatform (serial: engine pump + chaos flush;
/// threaded: parking on rank `rank`'s session under the stall watchdog —
/// every session of the world shares one completion doorbell, so any rank
/// serves a wait over all of them).
[[nodiscard]] DriveHooks hooks_for(core::MultiNodePlatform& platform,
                                   std::size_t rank = 0);

}  // namespace nmad::coll
