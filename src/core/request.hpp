// Non-blocking communication requests (the collect layer's currency).
//
// A request is created by Session::isend / Session::irecv and completed
// asynchronously by the scheduling layer. Handles returned to the
// application are shared_ptrs; the scheduler keeps raw pointers that are
// guaranteed valid because the Session retains every live request until
// completion.
//
// Thread model: under the threaded progression engine the application
// thread polls done()/completed()/failed() while a progress thread settles
// the request. The state is therefore an atomic, written with release and
// read with acquire ordering so everything the engine wrote before settling
// (received bytes in the user buffer, received_len_, completion_time_) is
// visible to the application once done() returns true. The auxiliary cells
// (bytes_sent_, received_len_, completion_time_, seq_) are relaxed atomics:
// they are single-writer (the progression engine, serialized by its lock)
// and carry no synchronization duty of their own.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace nmad::core {

enum class RequestState : std::uint8_t {
  kPending,    ///< submitted, data still moving
  kCompleted,  ///< all data locally sent / fully received
  kFailed,     ///< every rail of the request's gate died before completion
};

class SendRequest {
 public:
  /// A message made of `segments`, in order (empty ones carry no bytes and
  /// are skipped). A one-segment message is held inline; only a
  /// multi-segment one allocates a segment list.
  SendRequest(Tag tag, std::span<const std::span<const std::byte>> segments);

  [[nodiscard]] Tag tag() const noexcept { return tag_; }
  /// Send ordinal for this (gate, tag) stream. Assigned when the scheduler
  /// accepts the submission — in threaded mode that is on a progress
  /// thread, in ring order, so it always matches application post order.
  [[nodiscard]] MsgSeq seq() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MsgKey key() const noexcept { return MsgKey{tag_, seq()}; }
  [[nodiscard]] std::span<const ConstSegment> segments() const noexcept {
    if (!more_.empty()) return more_;
    return {&first_, total_len_ > 0 ? 1u : 0u};
  }
  [[nodiscard]] std::uint32_t total_len() const noexcept { return total_len_; }

  [[nodiscard]] bool completed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kCompleted;
  }
  [[nodiscard]] bool failed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kFailed;
  }
  /// Settled either way — the state a wait() terminates on.
  [[nodiscard]] bool done() const noexcept {
    return state_.load(std::memory_order_acquire) != RequestState::kPending;
  }
  /// Virtual time of local completion; -1 while pending.
  [[nodiscard]] sim::TimeNs completion_time() const noexcept {
    return completion_time_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] GateId gate() const noexcept { return gate_; }

  // --- scheduling-layer interface ----------------------------------------
  /// Bind the per-(gate, tag) sequence number (set once at submission).
  void assign_seq(MsgSeq seq) noexcept {
    seq_.store(seq, std::memory_order_relaxed);
  }
  /// Credit locally-completed payload bytes; completes the request when the
  /// whole message has left the node. Zero-length messages complete on
  /// their (empty) packet's completion.
  void credit_sent(std::uint32_t bytes, sim::TimeNs now);
  /// Mark the request failed (all rails of its gate are dead). No-op once
  /// completed.
  void fail(sim::TimeNs now);
  /// Stamp the submission instant (set once by the scheduler at isend).
  void note_submit_time(sim::TimeNs t) noexcept { submit_time_ = t; }
  [[nodiscard]] sim::TimeNs submit_time() const noexcept { return submit_time_; }
  void note_gate(GateId g) noexcept { gate_ = g; }

 private:
  Tag tag_;
  std::atomic<MsgSeq> seq_{0};
  /// The only non-empty segment, or empty when `more_` holds them all.
  ConstSegment first_;
  std::vector<ConstSegment> more_;
  std::uint32_t total_len_ = 0;
  std::atomic<std::uint32_t> bytes_sent_{0};
  std::atomic<RequestState> state_{RequestState::kPending};
  std::atomic<sim::TimeNs> completion_time_{-1};
  sim::TimeNs submit_time_ = 0;
  GateId gate_ = 0;
};

class RecvRequest {
 public:
  /// A receive into `segments`, filled in order: a message shorter than
  /// their total leaves the tail untouched. A one-segment receive is held
  /// inline; only a multi-segment one allocates a segment list. The
  /// received bytes are copied straight into the segments.
  RecvRequest(Tag tag, std::span<const std::span<std::byte>> segments);

  [[nodiscard]] Tag tag() const noexcept { return tag_; }
  /// Receive ordinal for this (gate, tag) stream (assigned at submission).
  [[nodiscard]] MsgSeq seq() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MsgKey key() const noexcept { return MsgKey{tag_, seq()}; }
  [[nodiscard]] std::span<const std::span<std::byte>> segments() const noexcept {
    if (!more_.empty()) return more_;
    return {&first_, 1};
  }
  /// Bytes the segments hold together: the longest message this receive
  /// accepts.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool completed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kCompleted;
  }
  [[nodiscard]] bool failed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kFailed;
  }
  /// Settled either way — the state a wait() terminates on.
  [[nodiscard]] bool done() const noexcept {
    return state_.load(std::memory_order_acquire) != RequestState::kPending;
  }
  [[nodiscard]] sim::TimeNs completion_time() const noexcept {
    return completion_time_.load(std::memory_order_relaxed);
  }
  /// Actual message length (valid once completed).
  [[nodiscard]] std::uint32_t received_len() const noexcept {
    return received_len_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] GateId gate() const noexcept { return gate_; }

  // --- scheduling-layer interface ----------------------------------------
  void assign_seq(MsgSeq seq) noexcept {
    seq_.store(seq, std::memory_order_relaxed);
  }
  void complete(std::uint32_t received_len, sim::TimeNs now);
  /// Mark the request failed (all rails of its gate are dead). No-op once
  /// completed.
  void fail(sim::TimeNs now);
  /// Stamp the posting instant (set once by the scheduler at irecv).
  void note_submit_time(sim::TimeNs t) noexcept { submit_time_ = t; }
  [[nodiscard]] sim::TimeNs submit_time() const noexcept { return submit_time_; }
  void note_gate(GateId g) noexcept { gate_ = g; }

 private:
  Tag tag_;
  std::atomic<MsgSeq> seq_{0};
  /// The only segment, or empty when `more_` holds them all.
  std::span<std::byte> first_;
  std::vector<std::span<std::byte>> more_;
  std::size_t capacity_ = 0;
  std::atomic<std::uint32_t> received_len_{0};
  std::atomic<RequestState> state_{RequestState::kPending};
  std::atomic<sim::TimeNs> completion_time_{-1};
  sim::TimeNs submit_time_ = 0;
  GateId gate_ = 0;
};

using SendHandle = std::shared_ptr<SendRequest>;
using RecvHandle = std::shared_ptr<RecvRequest>;

}  // namespace nmad::core
