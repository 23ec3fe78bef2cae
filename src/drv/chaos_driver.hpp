// ChaosDriver: a decorator that injects rail faults into an underlying
// driver — the adversary the reliability layer is tested against.
//
// Historically this only scrambled delivery *order* (matching, rendezvous
// and reassembly must be order-independent). It has since grown into a full
// seeded fault injector: per-track probabilities of dropping, duplicating,
// corrupting (single byte flip) and delaying received frames, plus a hard
// kill() that silences the rail in both directions mid-run. Packet loss is
// decidedly *in* scope now — the frame envelope (proto/wire.hpp), per-rail
// ack/retransmit and the rail health state machine (core/rail_guard.hpp)
// exist precisely so that every fault injected here is either healed by
// retransmission or escalated to a dead-rail failover. The chaos property
// tests assert the end-to-end guarantee: a seeded run either completes with
// byte-identical payloads or reports a dead rail — never a hang, never
// wrong data.
//
// Every injection is counted and exposed in the metrics tree (chaos.*), so
// soak tests can assert that faults actually fired.
//
// Thread safety: like every driver, not internally synchronized — the
// buffer, RNG and stats are touched only under the world progress mutex.
// In threaded mode, flush() is typically wired as the progress thread's
// idle hook (runs under the lock); tests reading stats() with the progress
// thread live must take the world mutex first.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "drv/driver.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace nmad::drv {

/// Per-track fault probabilities, each in [0, 1], applied independently to
/// every frame the inner driver delivers.
struct FaultProfile {
  double drop = 0.0;       ///< discard the frame entirely
  double duplicate = 0.0;  ///< deliver the frame twice
  double corrupt = 0.0;    ///< flip one random byte before delivery
  double delay = 0.0;      ///< hold the frame across one extra release round
};

/// A seeded schedule of link-down windows. While a window is down, every
/// frame the inner driver delivers is discarded (receive-side blackout;
/// sends still complete locally so the NIC tracks never wedge) — the
/// reliability layer sees unanswered frames and unanswered keepalive
/// probes, exactly like a flapping cable. Flapping one wrapper of a link
/// models an asymmetric partition; flapping both models a symmetric one.
struct FlapSpec {
  bool enabled = false;
  /// Mean lengths of the alternating up/down windows.
  sim::TimeNs up_ns = 10'000'000;
  sim::TimeNs down_ns = 3'000'000;
  /// Per-window uniform jitter (fraction of the mean, +/- jitter/2), drawn
  /// from a dedicated RNG stream so the schedule is a pure function of the
  /// chaos seed regardless of traffic.
  double jitter = 0.5;
  /// Flapping is active in [start_ns, stop_ns); stop_ns = 0 never stops.
  sim::TimeNs start_ns = 0;
  sim::TimeNs stop_ns = 0;
};

struct ChaosConfig {
  /// Deliveries are buffered until this many frames are pending, then
  /// released in a seeded-random order (window = 1 disables scrambling).
  std::size_t window = 4;
  std::array<FaultProfile, kTrackCount> track{};
  /// Seeded partition/flap windows. Requires `clock` when enabled.
  FlapSpec flap;
  /// Time source for the flap schedule (virtual time over the simulator).
  std::function<sim::TimeNs()> clock;

  /// Same fault probabilities on both tracks.
  [[nodiscard]] static ChaosConfig uniform(FaultProfile profile,
                                           std::size_t window = 4) {
    ChaosConfig cfg;
    cfg.window = window;
    cfg.track.fill(profile);
    return cfg;
  }
};

class ChaosDriver final : public Driver {
 public:
  /// Wraps `inner` (not owned) with fault injection per `cfg`.
  ChaosDriver(Driver& inner, std::uint64_t seed, ChaosConfig cfg);
  /// Order-scrambling only (the legacy decorator behavior).
  ChaosDriver(Driver& inner, std::uint64_t seed, std::size_t window = 4);

  /// Flushes stragglers through the (possibly defunct) deliver upcall and
  /// verifies none remain: frames held past session teardown would
  /// reference freed pool blocks.
  ~ChaosDriver() override;

  [[nodiscard]] const Capabilities& caps() const noexcept override {
    return inner_->caps();
  }
  [[nodiscard]] bool send_idle(Track track) const noexcept override {
    return !killed_ && inner_->send_idle(track);
  }
  void post_send(SendDesc desc, Callback on_sent) override;
  void set_deliver(DeliverFn deliver) override;
  void set_error(ErrorFn on_error) override { inner_->set_error(std::move(on_error)); }
  bool progress() override { return inner_->progress(); }
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const override;

  /// Hard-kill the rail: every future send is swallowed (its completion
  /// never fires) and every future receive is discarded, in both cases
  /// silently — exactly what a dead NIC port looks like to the peers. The
  /// reliability layer must detect this via retransmission timeouts (or
  /// keepalive probe misses when the rail is idle).
  void kill();
  [[nodiscard]] bool killed() const noexcept { return killed_; }

  /// Clear the kill switch (and forward to the inner driver): the port is
  /// ready to carry frames again. Called by the reliability layer's
  /// reconnect machinery before it proposes a new epoch.
  bool revive() override;

  /// Gate for revive(): while false, revive attempts fail and the kill
  /// switch stays set, so a test can hold an outage open for as long as it
  /// needs (the reconnect machinery keeps backing off and retrying) and
  /// then release recovery at a deterministic point.
  void set_revivable(bool revivable) noexcept { revivable_ = revivable; }

  /// Release every buffered frame (in scrambled order, delays ignored).
  void flush();

  [[nodiscard]] std::size_t buffered() const noexcept { return pending_.size(); }

  struct Stats {
    std::uint64_t frames_seen = 0;  ///< frames offered by the inner driver
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t delays = 0;
    std::uint64_t swallowed_sends = 0;   ///< posts discarded after kill()
    std::uint64_t discarded_recvs = 0;   ///< deliveries discarded after kill()
    std::uint64_t revives = 0;           ///< kill switches cleared
    std::uint64_t flap_downs = 0;        ///< down windows entered
    std::uint64_t flap_drops = 0;        ///< deliveries lost to down windows
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// True while the seeded flap schedule holds the link down at the
  /// current clock() time (always false without flap.enabled).
  [[nodiscard]] bool flap_down_now();

 private:
  void on_inner_deliver(Track track, std::span<const std::byte> wire);
  void release_all(bool honor_delays);

  Driver* inner_;
  util::Xoshiro256 rng_;
  /// Dedicated stream for flap-window lengths: drawing them must not
  /// perturb the legacy fault/shuffle sequence of a given seed.
  util::Xoshiro256 flap_rng_;
  ChaosConfig cfg_;
  DeliverFn deliver_;
  bool killed_ = false;
  bool revivable_ = true;
  bool flap_down_ = false;
  bool flap_initialized_ = false;
  sim::TimeNs flap_next_edge_ = 0;
  /// Deferred deliveries must own their bytes: the inner driver's span is
  /// only valid during its upcall, and these are released later.
  struct Held {
    Track track;
    std::vector<std::byte> wire;
    /// Release rounds this frame still sits out (delay injection).
    std::uint32_t delay_rounds = 0;
  };
  std::vector<Held> pending_;
  Stats stats_;
};

}  // namespace nmad::drv
