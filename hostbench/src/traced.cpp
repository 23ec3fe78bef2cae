#include "traced.hpp"

#include <utility>

namespace hostbench {

using nmad::drv::SendDesc;
using nmad::drv::Track;

void TracedDriver::post_send(SendDesc desc, Callback on_sent) {
  Span span(Layer::kDrvPost);
  if (Tracer::recording()) {
    counts_.posts += 1;
    counts_.wire_bytes += desc.frame_size();
    counts_.rail_wire_bytes[rail_] += desc.frame_size();
  }
  Callback wrapped;
  {
    InternalScope internal;
    wrapped = [cb = std::move(on_sent)] {
      Span sent(Layer::kCoreSent);
      if (cb) cb();
    };
  }
  inner_.post_send(std::move(desc), std::move(wrapped));
}

void TracedDriver::set_deliver(DeliverFn deliver) {
  inner_.set_deliver([fn = std::move(deliver)](Track track,
                                               std::span<const std::byte> frame) {
    Span span(Layer::kRx);
    fn(track, frame);
  });
}

bool TracedDriver::progress() {
  Span span(Layer::kDrvPoll);
  const bool worked = inner_.progress();
  if (Tracer::recording()) {
    counts_.polls += 1;
    counts_.poll_hits += worked ? 1 : 0;
  }
  return worked;
}

namespace {

class TracedStrategy final : public nmad::strat::Strategy {
 public:
  TracedStrategy(std::unique_ptr<Strategy> inner, BoundaryCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void on_submit_small(nmad::core::Gate& gate, nmad::strat::SmallEntry e) override {
    Span span(Layer::kStratSubmit);
    inner_->on_submit_small(gate, e);
  }
  void on_submit_large(nmad::core::Gate& gate, nmad::strat::LargeEntry e) override {
    Span span(Layer::kStratSubmit);
    inner_->on_submit_large(gate, e);
  }
  void on_rdv_granted(nmad::core::Gate& gate, nmad::core::MsgKey key) override {
    Span span(Layer::kStratSubmit);
    inner_->on_rdv_granted(gate, key);
  }
  std::optional<nmad::strat::PacketPlan> try_pack(nmad::core::Gate& gate,
                                                  nmad::core::Rail& rail,
                                                  Track track) override {
    Span span(Layer::kStratPack);
    auto plan = inner_->try_pack(gate, rail, track);
    if (Tracer::recording()) {
      counts_.pack_calls += 1;
      if (plan.has_value()) {
        counts_.plans += 1;
        counts_.plan_segments += plan->contribs.size();
      }
    }
    return plan;
  }
  [[nodiscard]] bool has_backlog() const noexcept override {
    return inner_->has_backlog();
  }
  void on_rail_dead(nmad::core::Gate& gate, nmad::core::RailIndex rail) override {
    inner_->on_rail_dead(gate, rail);
  }
  void on_rail_revived(nmad::core::Gate& gate, nmad::core::RailIndex rail) override {
    inner_->on_rail_revived(gate, rail);
  }
  void on_gate_failed(nmad::core::Gate& gate) override { inner_->on_gate_failed(gate); }

 private:
  std::unique_ptr<Strategy> inner_;
  BoundaryCounts& counts_;
};

}  // namespace

std::unique_ptr<nmad::strat::Strategy> traced_strategy(
    std::unique_ptr<nmad::strat::Strategy> inner, BoundaryCounts& counts) {
  return std::make_unique<TracedStrategy>(std::move(inner), counts);
}

SessionHooks traced_hooks(SessionHooks base, Layer progress_layer) {
  SessionHooks out;
  out.clock = std::move(base.clock);
  out.defer = [defer = std::move(base.defer)](std::function<void()> fn) {
    std::function<void()> wrapped;
    {
      InternalScope internal;
      wrapped = [fn = std::move(fn)] {
        Span span(Layer::kCorePump);
        fn();
      };
    }
    defer(std::move(wrapped));
  };
  out.progress = [progress = std::move(base.progress),
                  progress_layer](const std::function<bool()>& pred) {
    Span span(progress_layer);
    progress(pred);
  };
  if (base.timer) {
    out.timer = [timer = std::move(base.timer)](nmad::sim::TimeNs delay,
                                                std::function<void()> fn) {
      std::function<void()> wrapped;
      {
        InternalScope internal;
        wrapped = [fn = std::move(fn)] {
          Span span(Layer::kCoreTimer);
          fn();
        };
      }
      timer(delay, std::move(wrapped));
    };
  }
  return out;
}

}  // namespace hostbench
