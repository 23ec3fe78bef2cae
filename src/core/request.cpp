#include "core/request.hpp"

#include "util/panic.hpp"

namespace nmad::core {

// State transitions run on the progression engine (serialized by its lock
// in threaded mode), so the read-check-write sequences below are
// single-writer; the release store publishes every side effect (delivered
// bytes, received_len_, completion_time_) to application threads that
// observe done() with an acquire load.

SendRequest::SendRequest(Tag tag,
                         std::span<const std::span<const std::byte>> segments)
    : tag_(tag) {
  std::uint64_t offset = 0;
  std::size_t nonempty = 0;
  for (const auto& s : segments) {
    if (s.empty()) continue;
    const ConstSegment seg{s, static_cast<std::uint32_t>(offset)};
    if (nonempty == 0) {
      first_ = seg;
    } else {
      if (nonempty == 1) more_.push_back(first_);
      more_.push_back(seg);
    }
    nonempty += 1;
    offset += s.size();
  }
  NMAD_ASSERT(offset <= 0xffffffffULL, "message exceeds 4 GiB");
  total_len_ = static_cast<std::uint32_t>(offset);
}

void SendRequest::credit_sent(std::uint32_t bytes, sim::TimeNs now) {
  const RequestState st = state_.load(std::memory_order_relaxed);
  if (st == RequestState::kFailed) return;  // stale credit after failover
  NMAD_ASSERT(st == RequestState::kPending, "credit on completed send");
  const std::uint32_t sent =
      bytes_sent_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  NMAD_ASSERT(sent <= total_len_, "send credited beyond message length");
  if (sent == total_len_) {
    completion_time_.store(now, std::memory_order_relaxed);
    state_.store(RequestState::kCompleted, std::memory_order_release);
  }
}

void SendRequest::fail(sim::TimeNs now) {
  if (state_.load(std::memory_order_relaxed) != RequestState::kPending) return;
  completion_time_.store(now, std::memory_order_relaxed);
  state_.store(RequestState::kFailed, std::memory_order_release);
}

RecvRequest::RecvRequest(Tag tag, std::span<const std::span<std::byte>> segments)
    : tag_(tag) {
  if (segments.size() == 1) {
    first_ = segments[0];
  } else {
    more_.assign(segments.begin(), segments.end());
  }
  for (const auto& s : segments) capacity_ += s.size();
}

void RecvRequest::complete(std::uint32_t received_len, sim::TimeNs now) {
  NMAD_ASSERT(state_.load(std::memory_order_relaxed) == RequestState::kPending,
              "double completion of recv");
  NMAD_ASSERT(received_len <= capacity_, "received more than buffer holds");
  received_len_.store(received_len, std::memory_order_relaxed);
  completion_time_.store(now, std::memory_order_relaxed);
  state_.store(RequestState::kCompleted, std::memory_order_release);
}

void RecvRequest::fail(sim::TimeNs now) {
  if (state_.load(std::memory_order_relaxed) != RequestState::kPending) return;
  completion_time_.store(now, std::memory_order_relaxed);
  state_.store(RequestState::kFailed, std::memory_order_release);
}

}  // namespace nmad::core
