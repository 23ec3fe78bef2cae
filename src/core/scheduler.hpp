// The core (transversal) scheduler — paper §2.
//
// "A transversal global scheduler is in charge of controlling the overall
// functioning of the library in link with the drivers, for NICs
// monitoring. When some NICs become idle, the global scheduler ensures
// that the optimizing scheduler is queried for some new packet."
//
// Concretely: request processing is fully disconnected from the API calls.
// isend/irecv only append to the strategy backlog and to the matching
// tables; packets are produced exclusively by pump(), which fires whenever
// a NIC track reports idle (send completion) or a packet arrives. The
// scheduler also owns the mechanics shared by all strategies: small/large
// classification, the rendezvous handshake, receive matching, unexpected
// messages, reassembly, and completion accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/gate.hpp"
#include "core/request.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "strat/strategy.hpp"

namespace nmad::obs {
class MetricsRegistry;
}  // namespace nmad::obs

namespace nmad::core {

/// Scheduler-wide request aggregates (the collect layer's view: what the
/// application submitted and when it completed).
struct RequestMetrics {
  obs::Counter sends_posted;
  obs::Counter recvs_posted;
  obs::Counter sends_completed;
  obs::Counter recvs_completed;
  /// Total message payload submitted / delivered to matched receives.
  obs::Counter send_bytes_submitted;
  obs::Counter recv_bytes_delivered;
  /// Messages whose data arrived before a matching receive was posted.
  obs::Counter unexpected_msgs;
  /// Message sizes (bytes) and request lifetimes (ns, submit->complete).
  obs::Histogram send_size;
  obs::Histogram recv_size;
  obs::Histogram send_latency_ns;
  obs::Histogram recv_latency_ns;

  void register_into(obs::MetricsRegistry& registry,
                     const std::string& prefix) const;
};

class Scheduler {
 public:
  /// `now` supplies timestamps for request completion (virtual time over
  /// the simulator; wall-clock for real drivers).
  using ClockFn = std::function<sim::TimeNs()>;
  /// Observer called right after a request settles (completed or failed),
  /// in settlement order. Runs on the progression engine with the
  /// scheduler's serialization held — keep it cheap and never call back into
  /// the scheduler from it. Ordering contract: *matching* within one (gate,
  /// tag) stream always follows seq order (the k-th recv gets the k-th
  /// message), but *settlement* reorders whenever transfers genuinely finish
  /// out of order — a small eager message overtakes an earlier rendezvous
  /// transfer, or multi-rail chunks land at different times. Only
  /// single-rail traffic on one track settles strictly in seq order.
  using CompletionHook = std::function<void()>;
  /// `defer(fn)` runs fn at the next progression point (a zero-delay event
  /// on the simulator; the next progress() round for real drivers). This is
  /// what disconnects request processing from the API calls (paper §2): an
  /// isend only appends to the backlog, and the strategy is consulted at
  /// the deferred progression point — so a burst of submissions forms an
  /// optimization window the strategy can aggregate or split.
  using DeferFn = std::function<void(std::function<void()>)>;
  /// `timer(delay, fn)` runs fn after `delay` ns (simulator event / real
  /// timer wheel). Required only when a gate enables ack/retransmit — the
  /// RailGuards arm their RTO and delayed-ack timers through it.
  using TimerFn = std::function<void(sim::TimeNs, std::function<void()>)>;

  Scheduler(ClockFn now, DeferFn defer, TimerFn timer = nullptr);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Create a gate over the given rail endpoints. The scheduler installs
  /// itself as the drivers' deliver upcall; each driver belongs to exactly
  /// one gate.
  GateId add_gate(std::vector<drv::Driver*> rails,
                  std::unique_ptr<strat::Strategy> strategy,
                  strat::StrategyConfig config = {});

  [[nodiscard]] Gate& gate(GateId id);
  [[nodiscard]] std::size_t gate_count() const noexcept { return gates_.size(); }

  /// Submit a message made of `segments` (a logically contiguous sequence
  /// of user-memory views). The user memory must stay valid until the
  /// returned request completes. Equivalent to make_send + submit_send.
  SendHandle isend(GateId gate, Tag tag,
                   std::span<const std::span<const std::byte>> segments);

  /// Post a receive for the next message with `tag` on `gate`, landing in
  /// `segments` in order. Together they must hold at least the matching
  /// message; the memory must stay valid until the request completes (the
  /// list itself is copied). Equivalent to make_recv + submit_recv.
  RecvHandle irecv(GateId gate, Tag tag,
                   std::span<const std::span<std::byte>> segments);

  // --- split submission (threaded progression) ----------------------------
  // make_* builds and stamps the request without touching any gate or
  // scheduler mutable state (the request metrics are atomic), so it is safe
  // on the application thread with the progress thread live. submit_* binds
  // the per-(gate, tag) sequence number and hands the request to the
  // strategy; it must run on the progression engine (under its lock in
  // threaded mode). Requests must reach submit_* in make_* order per
  // thread — the SPSC submission ring preserves exactly that, which keeps
  // matching order equal to application post order.
  [[nodiscard]] SendHandle make_send(
      GateId gate, Tag tag, std::span<const std::span<const std::byte>> segments);
  void submit_send(SendHandle req);
  [[nodiscard]] RecvHandle make_recv(
      GateId gate, Tag tag, std::span<const std::span<std::byte>> segments);
  void submit_recv(RecvHandle req);

  /// Install the settled-request observer (nullptr to remove). Not
  /// thread-safe against the progression engine: in threaded mode install
  /// it under the world progress mutex.
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }

  [[nodiscard]] sim::TimeNs now() const { return now_(); }

  /// Pending (uncompleted) requests — drained-state check for tests. Reads
  /// scheduler-owned state: call only with the progression engine quiescent
  /// (or under its lock in threaded mode).
  [[nodiscard]] std::size_t pending_requests() const noexcept;

  /// Request-level aggregates (per-rail counters live on the gates' rails).
  [[nodiscard]] const RequestMetrics& metrics() const noexcept { return metrics_; }

  /// Register every metric of this scheduler — request aggregates plus,
  /// per gate, the strategy counters and each rail's counters (including
  /// the driver's own, under "drv.") — into `registry` with hierarchical
  /// names: `<prefix>requests.*`, `<prefix>gate<G>.strat.*`,
  /// `<prefix>gate<G>.rail<R>.*`.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix);

 private:
  /// Request a pump at the next progression point (idempotent per gate).
  void schedule_pump(Gate& gate);
  void pump(Gate& gate);
  bool pump_once(Gate& gate);
  void post_control(Gate& gate, Rail& rail, drv::SendDesc desc);
  void post_plan(Gate& gate, Rail& rail, strat::PacketPlan plan);
  /// Repost frames surrendered by dead rails onto healthy survivors.
  bool drain_resend(Gate& gate);
  /// Rail-level accounting shared by every post (data and control); must
  /// run before the driver post so the idle->busy transition is observable.
  void note_rail_post(Rail& rail, const drv::SendDesc& desc);
  /// Apply send-completion credit (local completion without acks; peer
  /// acknowledgement with them) and the completion metrics.
  void credit_contribs(Gate& gate, std::vector<strat::Contribution> contribs);
  /// Rail `idx` of `gate` was declared dead: requeue its un-acked frames,
  /// let the strategy retarget, and fail the gate if no rail survives.
  void on_rail_dead(Gate& gate, RailIndex idx);
  /// Rail `idx` completed a reconnect handshake: un-fail the gate (requests
  /// failed during a total outage stay failed — only *new* submissions use
  /// the resurrected rail), let the strategy re-include it and repump.
  void on_rail_revived(Gate& gate, RailIndex idx);
  /// Every rail died: fail the gate's pending requests and drop its queues.
  void fail_gate(Gate& gate);
  /// `wire` is the driver's non-owning view of the received frame; every
  /// byte kept past this call is copied by reassembly into its message.
  void on_packet(Gate& gate, Rail& rail, drv::Track track,
                 std::span<const std::byte> wire);
  void handle_data_segment(Gate& gate, Rail& rail, const proto::SegHeader& h,
                           std::span<const std::byte> payload);
  void handle_rdv_req(Gate& gate, const proto::SegHeader& h);
  void handle_rdv_ack(Gate& gate, const proto::SegHeader& h);
  void bind_recv(Gate& gate, Gate::Incoming& inc, RecvRequest* recv);
  void ensure_assembly(Gate::Incoming& inc);
  /// Completes the receive and drops the incoming entry when both the data
  /// and the matching receive are present.
  void try_finalize(Gate& gate, MsgKey key);
  void enqueue_ack(Gate& gate, MsgKey key);
  void sweep_completed();
  void notify_settled() {
    if (completion_hook_) completion_hook_();
  }

  ClockFn now_;
  DeferFn defer_;
  TimerFn timer_;
  /// Liveness token: timer callbacks handed to the engine may outlive this
  /// scheduler; they hold a weak_ptr and turn into no-ops once it expires.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::vector<std::unique_ptr<Gate>> gates_;
  std::vector<SendHandle> live_sends_;
  std::vector<RecvHandle> live_recvs_;
  /// Each list is swept once it grows past this size (see sweep_completed).
  std::size_t sweep_sends_at_ = 0;
  std::size_t sweep_recvs_at_ = 0;
  RequestMetrics metrics_;
  CompletionHook completion_hook_;
};

}  // namespace nmad::core
