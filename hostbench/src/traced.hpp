// Timing decorators for the traced run. Each wraps one library interface
// from outside — a drv::Driver, a strat::Strategy, the hooks a Session is
// built with, and the Session calls the workload makes — and opens a Span
// (ledger.hpp) around every call it forwards. None of them changes what
// the library does: the virtual-time guard checks that a traced run's
// simulated timeline is identical to the untraced one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "core/session.hpp"
#include "drv/driver.hpp"
#include "ledger.hpp"
#include "strat/strategy.hpp"

namespace hostbench {

/// Rails per gate the counts keep apart (the paper platform has two).
inline constexpr std::size_t kMaxRails = 2;

/// Counts taken at the wrapped boundaries while recording is on. Every
/// driver and strategy entry runs under the world progress mutex (or on the
/// one application thread), so plain counters suffice; they are read after
/// the progress threads are joined.
struct BoundaryCounts {
  std::uint64_t pack_calls = 0;     ///< Strategy::try_pack calls
  std::uint64_t plans = 0;          ///< ... that returned a packet
  std::uint64_t plan_segments = 0;  ///< contributions carried by those packets
  std::uint64_t posts = 0;          ///< Driver::post_send calls
  std::uint64_t wire_bytes = 0;     ///< frame bytes posted (envelope + packet)
  std::array<std::uint64_t, kMaxRails> rail_wire_bytes{};
  std::uint64_t polls = 0;      ///< Driver::progress calls
  std::uint64_t poll_hits = 0;  ///< ... that reported work
  std::uint64_t idle_rounds = 0;  ///< threaded progress rounds that moved nothing
};

class TracedDriver final : public nmad::drv::Driver {
 public:
  TracedDriver(nmad::drv::Driver& inner, std::size_t rail, BoundaryCounts& counts)
      : inner_(inner), rail_(rail), counts_(counts) {}

  [[nodiscard]] const nmad::drv::Capabilities& caps() const noexcept override {
    return inner_.caps();
  }
  [[nodiscard]] bool send_idle(nmad::drv::Track track) const noexcept override {
    return inner_.send_idle(track);
  }
  void post_send(nmad::drv::SendDesc desc, Callback on_sent) override;
  void set_deliver(DeliverFn deliver) override;
  void set_error(ErrorFn on_error) override { inner_.set_error(std::move(on_error)); }
  bool progress() override;
  bool revive() override { return inner_.revive(); }
  void register_metrics(nmad::obs::MetricsRegistry& registry,
                        const std::string& prefix) const override {
    inner_.register_metrics(registry, prefix);
  }

 private:
  nmad::drv::Driver& inner_;
  std::size_t rail_;
  BoundaryCounts& counts_;
};

/// Wrap a strategy so its submit and pack entry points are spans.
[[nodiscard]] std::unique_ptr<nmad::strat::Strategy> traced_strategy(
    std::unique_ptr<nmad::strat::Strategy> inner, BoundaryCounts& counts);

/// The functions a Session is constructed with.
struct SessionHooks {
  nmad::core::Scheduler::ClockFn clock;
  nmad::core::Scheduler::DeferFn defer;
  nmad::core::Session::ProgressFn progress;
  nmad::core::Scheduler::TimerFn timer;
};

/// Deferred callbacks become core.pump spans, timer callbacks core.timer,
/// and every progress call a `progress_layer` span.
[[nodiscard]] SessionHooks traced_hooks(SessionHooks base, Layer progress_layer);

// Session calls as the workload makes them: collect and wait spans (no-ops
// while recording is off).
inline nmad::core::SendHandle isend(nmad::core::Session& s, nmad::core::GateId g,
                                    nmad::core::Tag tag,
                                    std::span<const std::byte> data) {
  Span span(Layer::kCollect);
  return s.isend(g, tag, data);
}
inline nmad::core::RecvHandle irecv(nmad::core::Session& s, nmad::core::GateId g,
                                    nmad::core::Tag tag, std::span<std::byte> buf) {
  Span span(Layer::kCollect);
  return s.irecv(g, tag, buf);
}
template <typename Handle>
void wait(nmad::core::Session& s, const Handle& h) {
  Span span(Layer::kWait);
  s.wait(h);
}
inline void wait_all(nmad::core::Session& s,
                     std::span<const nmad::core::SendHandle> sends,
                     std::span<const nmad::core::RecvHandle> recvs) {
  Span span(Layer::kWait);
  s.wait_all(sends, recvs);
}

}  // namespace hostbench
