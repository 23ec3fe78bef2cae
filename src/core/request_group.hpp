// RequestGroup: completion bookkeeping for a set of requests that span
// multiple gates — the currency of the collectives layer, where one
// logical operation (a broadcast, a reduction round) fans out into sends
// and receives towards several peers at once.
//
// A group only *observes* its handles (all queries read the requests'
// atomic state), so it is safe to poll from the application thread while
// the progress thread settles the members. Adding handles is not synchronized:
// one thread owns the group.
#pragma once

#include <vector>

#include "core/request.hpp"

namespace nmad::core {

class RequestGroup {
 public:
  void add(SendHandle h) { sends_.push_back(std::move(h)); }
  void add(RecvHandle h) { recvs_.push_back(std::move(h)); }

  /// Every member settled (completed or failed) — the state a wait
  /// terminates on.
  [[nodiscard]] bool all_settled() const noexcept {
    for (const auto& h : sends_) {
      if (!h->done()) return false;
    }
    for (const auto& h : recvs_) {
      if (!h->done()) return false;
    }
    return true;
  }

  /// At least one member failed (its gate lost every rail).
  [[nodiscard]] bool any_failed() const noexcept {
    for (const auto& h : sends_) {
      if (h->failed()) return true;
    }
    for (const auto& h : recvs_) {
      if (h->failed()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return sends_.size() + recvs_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] const std::vector<SendHandle>& sends() const noexcept {
    return sends_;
  }
  [[nodiscard]] const std::vector<RecvHandle>& recvs() const noexcept {
    return recvs_;
  }

  void clear() {
    sends_.clear();
    recvs_.clear();
  }

 private:
  std::vector<SendHandle> sends_;
  std::vector<RecvHandle> recvs_;
};

}  // namespace nmad::core
