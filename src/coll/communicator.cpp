#include "coll/communicator.hpp"

#include <chrono>

#include "coll/barrier.hpp"
#include "coll/bcast.hpp"
#include "coll/reduce.hpp"
#include "core/platform.hpp"
#include "core/progress.hpp"
#include "obs/registry.hpp"
#include "util/panic.hpp"

namespace nmad::coll {

namespace {
/// Tags per algorithm stream: instance k of an algorithm uses the k-th tag
/// of its window (mod this), so up to 0x1000 instances of one algorithm
/// can be in flight before streams could cross-match.
constexpr core::Tag kTagWindow = 0x1000;
/// Streams: bcast, reduce, barrier, allreduce-combine, allreduce-distribute.
constexpr std::size_t kTagStreams = 5;
}  // namespace

// --- CollMetrics ------------------------------------------------------------

void CollMetrics::register_into(obs::MetricsRegistry& registry,
                                const std::string& prefix) const {
  registry.add(prefix + "bcast.ops", &bcast_ops);
  registry.add(prefix + "bcast.bytes", &bcast_bytes);
  registry.add(prefix + "reduce.ops", &reduce_ops);
  registry.add(prefix + "reduce.bytes", &reduce_bytes);
  registry.add(prefix + "allreduce.ops", &allreduce_ops);
  registry.add(prefix + "allreduce.bytes", &allreduce_bytes);
  registry.add(prefix + "barrier.ops", &barrier_ops);
  registry.add(prefix + "segments_sent", &segments_sent);
  registry.add(prefix + "rounds", &rounds);
  registry.add(prefix + "completed_ops", &completed_ops);
  registry.add(prefix + "failed_ops", &failed_ops);
  registry.add(prefix + "tree_depth", &tree_depth);
  registry.add(prefix + "levels", &levels);
  registry.add(prefix + "level_intra_sends", &level_intra_sends);
  registry.add(prefix + "level_inter_sends", &level_inter_sends);
}

// --- CollOp -----------------------------------------------------------------

bool CollOp::try_advance() {
  if (done_) return false;
  bool changed = false;
  while (step()) {
    changed = true;
    if (done_) break;
  }
  if (changed) ++version_;
  return changed;
}

void CollOp::abort() {
  if (done_) return;
  on_abort();
  finish(false);
  ++version_;
}

void CollOp::finish(bool ok) {
  NMAD_ASSERT(!done_, "collective op finished twice");
  done_ = true;
  failed_ = !ok;
  if (!subsidiary_) {
    (ok ? comm_->metrics_.completed_ops : comm_->metrics_.failed_ops).inc();
  }
}

core::SendHandle CollOp::post_send(std::size_t peer, core::Tag tag,
                                   std::span<const std::byte> data) {
  core::SendHandle h = comm_->session_->isend(comm_->gate_to(peer), tag, data);
  group_.add(h);
  comm_->metrics_.segments_sent.inc();
  if (const Topology* topo = comm_->topology()) {
    (topo->domain_of(peer) == topo->domain_of(comm_->rank_)
         ? comm_->metrics_.level_intra_sends
         : comm_->metrics_.level_inter_sends)
        .inc();
  }
  switch (algo_) {
    case Algo::kBcast: comm_->metrics_.bcast_bytes.inc(data.size()); break;
    case Algo::kReduce: comm_->metrics_.reduce_bytes.inc(data.size()); break;
    case Algo::kAllreduce:
      comm_->metrics_.allreduce_bytes.inc(data.size());
      break;
    case Algo::kBarrier: break;
  }
  return h;
}

core::RecvHandle CollOp::post_recv(std::size_t peer, core::Tag tag,
                                   std::span<std::byte> buffer) {
  core::RecvHandle h = comm_->session_->irecv(comm_->gate_to(peer), tag, buffer);
  group_.add(h);
  return h;
}

// --- Communicator -----------------------------------------------------------

Communicator::Communicator(core::Session& session,
                           std::vector<core::GateId> peer_gates,
                           std::size_t rank, CollConfig config)
    : session_(&session),
      gates_(std::move(peer_gates)),
      rank_(rank),
      config_(config) {
  NMAD_ASSERT(!gates_.empty(), "communicator needs at least one rank");
  NMAD_ASSERT(rank_ < gates_.size(), "rank out of range");
  NMAD_ASSERT(config_.tag_base >= core::kReservedTagBase,
              "collective tags must live in the reserved tag space");
  NMAD_ASSERT(config_.tag_base <=
                  core::Tag{0xffffffff} - kTagStreams * kTagWindow,
              "tag_base leaves no room for the collective tag windows");
}

core::Tag Communicator::next_tag(Algo algo, std::size_t stream) {
  std::size_t idx = 0;
  switch (algo) {
    case Algo::kBcast: idx = 0; break;
    case Algo::kReduce: idx = 1; break;
    case Algo::kBarrier: idx = 2; break;
    case Algo::kAllreduce: idx = 3 + stream; break;
  }
  const std::uint32_t instance = instance_[idx]++;
  return config_.tag_base +
         static_cast<core::Tag>(idx) * kTagWindow + (instance % kTagWindow);
}

CollHandle Communicator::ibcast(std::span<std::byte> buffer, std::size_t root) {
  NMAD_ASSERT(root < size(), "broadcast root out of range");
  metrics_.bcast_ops.inc();
  return std::make_shared<BcastOp>(*this, buffer, root, next_tag(Algo::kBcast),
                                   Algo::kBcast);
}

CollHandle Communicator::ireduce(std::span<const std::byte> contrib,
                                 std::span<std::byte> result, std::size_t root,
                                 CombineFn combine, std::uint32_t elem_size) {
  NMAD_ASSERT(root < size(), "reduce root out of range");
  metrics_.reduce_ops.inc();
  return std::make_shared<ReduceOp>(*this, contrib, result, root, combine,
                                    elem_size, next_tag(Algo::kReduce),
                                    Algo::kReduce);
}

CollHandle Communicator::iallreduce(std::span<const std::byte> contrib,
                                    std::span<std::byte> result,
                                    CombineFn combine, std::uint32_t elem_size) {
  metrics_.allreduce_ops.inc();
  return std::make_shared<AllreduceOp>(*this, contrib, result, combine,
                                       elem_size);
}

CollHandle Communicator::ibarrier() {
  metrics_.barrier_ops.inc();
  return std::make_shared<BarrierOp>(*this, next_tag(Algo::kBarrier));
}

bool Communicator::wait(const CollHandle& op) {
  if (hooks_.run_until != nullptr || hooks_.threaded_session != nullptr) {
    return wait_all(std::span<const CollHandle>(&op, 1), hooks_);
  }
  // Fallback without hooks: park in the session between advances. Works
  // wherever Session::wait works — the other ranks must be progressing
  // concurrently (threaded progression, or real drivers with the peers on
  // other processes); Session's deadlock detection fires otherwise.
  while (!op->done()) {
    if (op->try_advance()) continue;
    session_->wait_group(op->requests());
    const bool advanced = op->try_advance();
    NMAD_ASSERT(advanced || op->done(),
                "collective stuck with every request settled");
  }
  return op->completed();
}

// --- drivers ----------------------------------------------------------------

bool wait_all(std::span<const CollHandle> ops, const DriveHooks& hooks) {
  auto all_done = [&] {
    bool all = true;
    for (const auto& h : ops) {
      h->try_advance();
      if (!h->done()) all = false;
    }
    return all;
  };
  auto abort_rest = [&] {
    for (const auto& h : ops) {
      if (!h->done()) h->abort();
    }
  };

  if (hooks.threaded_session == nullptr) {
    NMAD_ASSERT(hooks.run_until != nullptr, "serial DriveHooks needs run_until");
    if (!all_done() && !hooks.run_until(all_done) && !all_done()) {
      // Global quiescence with ops unfinished: the pattern cannot complete
      // (e.g. a peer's gate lost every rail mid-collective and this rank's
      // receives will never match). Degrade instead of hanging.
      abort_rest();
    }
  } else {
    // The progress thread owns the engine; park on the completion doorbell
    // and reset the stall deadline whenever any op changes state.
    const auto stall = std::chrono::milliseconds(hooks.stall_ms);
    auto deadline = std::chrono::steady_clock::now() + stall;
    std::uint64_t last_versions = ~std::uint64_t{0};
    while (!all_done()) {
      std::uint64_t versions = 0;
      for (const auto& h : ops) versions += h->version();
      const auto now = std::chrono::steady_clock::now();
      if (versions != last_versions) {
        last_versions = versions;
        deadline = now + stall;
      } else if (now > deadline) {
        abort_rest();
        break;
      }
      hooks.threaded_session->progress_engine()->park(
          all_done, std::chrono::ceil<std::chrono::milliseconds>(deadline - now));
    }
  }

  bool ok = true;
  for (const auto& h : ops) ok &= h->completed();
  return ok;
}

DriveHooks hooks_for(core::MultiNodePlatform& platform, std::size_t rank) {
  DriveHooks hooks;
  if (platform.progress_mode() == core::ProgressMode::kThreaded) {
    hooks.threaded_session = &platform.session(rank);
  } else {
    hooks.run_until = [&platform](const std::function<bool()>& pred) {
      return platform.run_until(pred);
    };
  }
  return hooks;
}

Communicator make_communicator(core::MultiNodePlatform& platform,
                               std::size_t rank, CollConfig config) {
  Communicator comm(platform.session(rank), platform.gates_from(rank), rank,
                    config);
  comm.set_drive_hooks(hooks_for(platform, rank));
  if (platform.config().lazy) {
    // Lazy platform: kNoGate entries are resolved (and the edge
    // established) on first use by a collective.
    comm.set_gate_resolver([&platform, rank](std::size_t peer) {
      return platform.ensure_gate(rank, peer);
    });
  }
  if (config.hierarchical && !platform.config().hosts.empty()) {
    comm.set_topology(std::make_shared<const Topology>(
        Topology::from_hosts(platform.config().hosts)));
  }
  return comm;
}

}  // namespace nmad::coll
