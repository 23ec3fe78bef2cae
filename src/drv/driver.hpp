// The transmit-layer driver abstraction (paper §2, bottom layer).
//
// A Driver is one rail endpoint: one NIC port connected to a peer node. It
// exposes two *tracks*, mirroring NewMadeleine's track model:
//
//  - kSmall: the eager track. Packets up to the NIC's PIO threshold are
//    pushed with Programmed I/O; also carries rendezvous control packets.
//  - kLarge: the put/get track. Bulk data moved by the NIC's DMA engine
//    after a rendezvous handshake.
//
// Each track accepts ONE outstanding send: the scheduling layer is
// explicitly notified (`on_sent`) when the track becomes idle again, and
// that notification is what triggers the optimizing strategy — the paper's
// core idea of scheduling in relationship with NIC activity rather than
// with API calls.
//
// Thread safety: drivers are NOT internally synchronized. Every entry —
// post_send, deliver upcalls, stats reads — happens with the world
// progress mutex held: on the application thread in serial mode, on the
// world's progress thread in threaded mode (core/progress.hpp). Implementations
// must not spawn their own threads that touch driver state without taking
// that same lock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netmodel/nic_profile.hpp"
#include "proto/wire.hpp"

namespace nmad::obs {
class MetricsRegistry;
}  // namespace nmad::obs

namespace nmad::drv {

enum class Track : std::uint8_t { kSmall = 0, kLarge = 1 };
inline constexpr int kTrackCount = 2;

[[nodiscard]] constexpr const char* track_name(Track t) noexcept {
  return t == Track::kSmall ? "small" : "large";
}

/// Static description of a rail, used by strategies to pick rails without
/// touching driver-specific APIs (the paper's "driver capabilities provided
/// by the underlying layer").
struct Capabilities {
  std::string name;
  /// Largest eager-track packet *payload* this driver accepts (protocol
  /// headers ride on top). Also the PIO/DMA boundary of the NIC.
  std::uint32_t max_small_packet = 8 * 1024;
  /// Host memory copy bandwidth, MB/s (cost model for aggregation copies).
  double copy_bandwidth_mbps = 2500.0;
  /// Estimated minimal one-way latency, µs (strategy rail-selection hint).
  double latency_us = 0.0;
  /// Estimated bulk bandwidth, MB/s (strategy split-ratio fallback).
  double bandwidth_mbps = 0.0;
  /// Cost of polling this rail when idle, µs (progression overhead).
  double poll_cost_us = 0.0;
};

/// An encoded packet handed to a driver, plus scheduling metadata. The
/// packet is a scatter-gather PacketView (proto/wire.hpp format): a pooled
/// header block plus payload spans referencing the request's segments in
/// place. The driver gathers the pieces at the wire boundary and releases
/// the view — recycling the pooled blocks — on local send completion.
struct SendDesc {
  Track track = Track::kSmall;
  proto::PacketView view;
  /// Extra CPU time the progression engine spent building this packet
  /// (e.g. aggregation memcpys); the driver charges it to the host CPU
  /// before the transfer starts.
  double extra_cpu_us = 0.0;
  /// Per-rail reliability envelope (proto::FrameEnvelope wire image),
  /// sealed by the RailGuard before the post. Drivers transmit it in front
  /// of the packet bytes; it is all-zero (and ignored by the receiver's
  /// custom deliver) for raw driver-level tests that bypass the guard.
  std::array<std::byte, proto::kFrameEnvelopeBytes> envelope{};

  SendDesc() = default;
  SendDesc(Track t, proto::PacketView v, double cpu = 0.0)
      : track(t), view(std::move(v)), extra_cpu_us(cpu) {}

  [[nodiscard]] std::size_t wire_size() const noexcept {
    return view.wire_size();
  }
  /// Full on-wire size: envelope + packet. This is what the receiver's
  /// DeliverFn sees; ack-only frames are envelope-only (wire_size() == 0).
  [[nodiscard]] std::size_t frame_size() const noexcept {
    return proto::kFrameEnvelopeBytes + view.wire_size();
  }
};

/// Why a rail stopped working, as reported by the driver itself.
enum class RailErrorKind : std::uint8_t {
  kSendFailed = 1,  ///< a send syscall / NIC op returned a hard error
  kRecvFailed = 2,  ///< the receive path returned a hard error
  kPeerGone = 3,    ///< the peer closed its endpoint (clean or crash)
};

[[nodiscard]] constexpr const char* rail_error_name(RailErrorKind k) noexcept {
  switch (k) {
    case RailErrorKind::kSendFailed: return "send_failed";
    case RailErrorKind::kRecvFailed: return "recv_failed";
    case RailErrorKind::kPeerGone: return "peer_gone";
  }
  return "unknown";
}

/// A recoverable rail failure event. Drivers surface these through the
/// ErrorFn upcall instead of panicking; the reliability layer reacts by
/// marking the rail dead and failing its traffic over to the survivors.
struct RailError {
  RailErrorKind kind = RailErrorKind::kSendFailed;
  Track track = Track::kSmall;
  int sys_errno = 0;    ///< errno for socket-backed drivers, 0 otherwise
  std::string detail;   ///< human-readable context for logs
};

class Driver {
 public:
  using Callback = std::function<void()>;
  /// Upcall invoked on the receiving side with the track and a view of the
  /// raw encoded packet bytes. The span is NOT owning: it points into the
  /// driver's receive storage and is valid only for the duration of the
  /// upcall — consumers must decode (and copy what they keep) before
  /// returning.
  using DeliverFn = std::function<void(Track, std::span<const std::byte>)>;
  /// Upcall invoked when the driver hits a non-recoverable I/O failure on
  /// this rail. After reporting, the failed track (or the whole endpoint,
  /// for kPeerGone) goes permanently non-idle: post_send must not be called
  /// again and no further delivers occur. The rail is expected to be
  /// declared dead by the reliability layer; the process keeps running.
  using ErrorFn = std::function<void(const RailError&)>;

  virtual ~Driver() = default;

  [[nodiscard]] virtual const Capabilities& caps() const noexcept = 0;

  /// True when `post_send` may be called for this track.
  [[nodiscard]] virtual bool send_idle(Track track) const noexcept = 0;

  /// Hand one packet to the NIC. Requires send_idle(track). `on_sent`
  /// fires when the track is free again (local completion).
  virtual void post_send(SendDesc desc, Callback on_sent) = 0;

  /// Install the receive upcall (set once, by the scheduling layer).
  virtual void set_deliver(DeliverFn deliver) = 0;

  /// Install the rail-failure upcall. Optional: drivers that cannot fail
  /// (pure simulation) keep the default no-op. Without a handler installed,
  /// a real driver that hits an error still must not crash — it parks the
  /// failed track and drops the event.
  virtual void set_error(ErrorFn on_error) { (void)on_error; }

  /// Drive I/O for drivers that need active progression (e.g. sockets).
  /// Returns true if any work was performed. Simulated drivers are pumped
  /// by the event engine and return false.
  virtual bool progress() { return false; }

  /// Attempt to re-establish a failed endpoint so the reliability layer can
  /// run its reconnect handshake: un-park failed tracks, re-open sockets,
  /// clear kill switches. Returns true when the endpoint is ready to carry
  /// frames again (the handshake still decides whether the *rail* is
  /// usable). Default: nothing to re-establish, revival trivially succeeds
  /// — right for simulated drivers whose faults live in a chaos wrapper.
  virtual bool revive() { return true; }

  /// Register this driver's own counters (NIC-level transfer and polling
  /// stats) under `prefix` — the scheduling layer calls this for each rail
  /// so driver internals appear in the same metrics tree as the rail
  /// counters. Default: nothing to expose.
  virtual void register_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) const {
    (void)registry;
    (void)prefix;
  }

  Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
};

}  // namespace nmad::drv
