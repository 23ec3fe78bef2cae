// TCP/socket driver: the legacy-API transmit-layer driver the real
// NewMadeleine also ships ("the legacy socket API on top of TCP/IP", §2).
//
// Unlike SimDriver this moves bytes through real kernel sockets in real
// time. It exists to demonstrate that the scheduling layer is genuinely
// driver-agnostic — the same strategies, rendezvous protocol and matching
// run unchanged — and to provide a functional (non-simulated) transport
// for multi-process runs.
//
// Each endpoint uses two stream sockets, one per track, mirroring the
// eager/bulk track separation: a large transfer in flight on the bulk
// socket never head-of-line-blocks rendezvous control traffic.
//
// Framing per socket: 4-byte little-endian payload length, then the
// encoded packet (proto/wire.hpp format). Outbound frames are gathered
// straight from the SendDesc's PacketView with sendmsg (length prefix,
// header block and payload spans as separate iovecs — no flattening copy);
// inbound frames are decoded in place from the receive buffer and handed
// up as non-owning spans.
//
// Thread safety: no internal locks. post_send and progress() (the poll
// that drains sockets and fires deliver upcalls) must run on one thread at
// a time — RealWorld::progress_until from the application thread. Threaded
// progression does not drive sockets: its progress thread parks on a
// doorbell that submissions and sim-engine events ring, and a socket has no
// ring point until a readiness doorbell (e.g. epoll) exists.
#pragma once

#include <sys/uio.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "drv/driver.hpp"
#include "util/expected.hpp"

namespace nmad::drv {

class TcpDriver final : public Driver {
 public:
  /// Build a connected endpoint pair inside one process (socketpair per
  /// track). The canonical way to run tests and single-process demos.
  static std::pair<std::unique_ptr<TcpDriver>, std::unique_ptr<TcpDriver>>
  create_pair();

  /// Two-process setup: listen on `port` (both track sockets accepted, in
  /// track order) / connect to a listener.
  static util::Expected<std::unique_ptr<TcpDriver>> listen_one(std::uint16_t port);
  static util::Expected<std::unique_ptr<TcpDriver>> connect_to(const std::string& host,
                                                               std::uint16_t port);

  ~TcpDriver() override;

  [[nodiscard]] const Capabilities& caps() const noexcept override { return caps_; }
  [[nodiscard]] bool send_idle(Track track) const noexcept override;
  void post_send(SendDesc desc, Callback on_sent) override;
  void set_deliver(DeliverFn deliver) override;
  void set_error(ErrorFn on_error) override;
  bool progress() override;

  /// True once `track` hit a hard I/O failure (send error, recv error or
  /// peer close) and was parked. A failed track stays parked until a
  /// successful revive() swaps in fresh sockets.
  [[nodiscard]] bool failed(Track track) const noexcept {
    return tracks_[static_cast<std::size_t>(track)].failed;
  }

  /// Produces a fresh connected socket pair (fd_small, fd_large) for this
  /// endpoint, or {-1, -1} on failure. Installed automatically by
  /// connect_to() (re-dials the saved host:port); tests and listen-side
  /// harnesses install their own. Without one, revive() cannot recover a
  /// failed endpoint.
  using Reconnector = std::function<std::pair<int, int>()>;
  void set_reconnector(Reconnector fn) { reconnector_ = std::move(fn); }

  /// Re-establish failed tracks through the reconnector, with capped
  /// exponential backoff on wall-clock time (a revive call inside the
  /// backoff window fails fast instead of re-dialing). On success both
  /// tracks get fresh sockets and cleared buffers; the reliability layer's
  /// epoch handshake then decides when the rail carries traffic again.
  bool revive() override;

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t bytes_received = 0;
    /// Progression rounds that polled this endpoint's sockets.
    std::uint64_t progress_polls = 0;
    /// Hard I/O failures surfaced as RailError events (one per track max).
    std::uint64_t rail_errors = 0;
    /// Successful socket re-establishments (both tracks swapped).
    std::uint64_t reconnects = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const override;

 private:
  struct TrackState {
    int fd = -1;
    // Outbound frame currently draining into the socket (one at a time —
    // the Driver contract). The descriptor's PacketView keeps the pooled
    // header block and the referenced payload spans alive until the whole
    // frame has been handed to the kernel; completion then releases it
    // (recycling the blocks) before firing on_sent.
    SendDesc out;
    std::array<std::byte, 4> frame_len{};
    std::size_t out_off = 0;    ///< cumulative bytes accepted by the kernel
    std::size_t out_total = 0;  ///< 4-byte prefix + wire size
    Callback on_sent;
    bool busy = false;
    // Scratch iovec list, rebuilt per flush attempt from out_off.
    std::vector<iovec> iov;
    // Inbound reassembly of the length-prefixed frame stream. Complete
    // frames are delivered as spans into this buffer; `in_off` tracks the
    // consumed prefix, compacted once per drain.
    std::vector<std::byte> in;
    std::size_t in_off = 0;
    // Permanently parked after a hard I/O failure: no further sends are
    // accepted, no further reads are attempted, pending output is dropped.
    bool failed = false;
  };

  TcpDriver(int fd_small, int fd_large);
  bool flush_writes(Track track, TrackState& ts);
  bool drain_reads(Track track, TrackState& ts);
  /// Park `track` after a hard failure and surface one RailError upcall.
  void fail(Track track, RailErrorKind kind, int sys_errno, const char* detail);

  Capabilities caps_;
  std::array<TrackState, kTrackCount> tracks_;
  DeliverFn deliver_;
  ErrorFn on_error_;
  Reconnector reconnector_;
  /// Wall-clock backoff between re-dial attempts (doubles per failure up
  /// to the cap; resets on success).
  std::chrono::milliseconds reconnect_backoff_{50};
  std::chrono::steady_clock::time_point next_reconnect_attempt_{};
  Stats stats_;
};

}  // namespace nmad::drv
