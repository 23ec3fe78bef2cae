// An MPI-flavored API layer over the collect layer.
//
// The paper's top layer is explicitly multi-API ("since NewMadeleine is
// organized in a modular fashion, several flavors of APIs may be
// implemented", §2), and its stated next step is wiring the library under
// MPICH-Madeleine (§4). This header provides that flavor in miniature: a
// Communicator with blocking/non-blocking typed send/recv, wildcard-free
// tag matching, sendrecv, and a barrier — enough to port small MPI-style
// kernels onto the multi-rail engine unchanged.
//
// A Communicator is a thin typed wrapper around one rank of a
// coll::Communicator: one gate per peer, an explicit rank, and N = 2 (the
// paper's two-node evaluation) as an ordinary case. barrier() is the
// collectives layer's dissemination barrier; richer group operations
// (broadcast/reduce/allreduce) are reachable via group().
//
// Tag discipline: user tags must stay below core::kReservedTagBase — the
// space above it carries the collective tag streams, and a user message
// there would silently cross-match protocol traffic, so both posting paths
// reject it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "coll/communicator.hpp"
#include "core/session.hpp"

namespace nmad::api {

/// Completion information for a receive (MPI_Status in miniature).
struct RecvStatus {
  std::uint32_t bytes = 0;
  core::Tag tag = 0;
};

/// A non-blocking operation handle (MPI_Request in miniature).
class MpiRequest {
 public:
  MpiRequest() = default;

  [[nodiscard]] bool test() const;
  void wait();
  /// Valid for receives, after completion.
  [[nodiscard]] RecvStatus status() const;

 private:
  friend class Communicator;
  core::Session* session_ = nullptr;
  core::SendHandle send_;
  core::RecvHandle recv_;
  core::Tag tag_ = 0;
};

/// One rank of an MPI-style communicator (one gate per peer).
class Communicator {
 public:
  /// peer_gates[r] is this session's gate towards rank r (entry [rank] is
  /// ignored). Point-to-point calls on this object address the default
  /// peer — rank 0, or rank 1 when this endpoint is rank 0; use to_peer(r)
  /// for an explicit destination. barrier() synchronizes all ranks via
  /// dissemination.
  Communicator(core::Session& session, std::vector<core::GateId> peer_gates,
               std::size_t rank)
      : group_(std::make_shared<coll::Communicator>(session, peer_gates, rank)),
        gate_(peer_gates[rank == 0 ? (peer_gates.size() > 1 ? 1 : 0) : 0]) {}

  [[nodiscard]] std::size_t size() const noexcept { return group_->size(); }
  [[nodiscard]] std::size_t rank() const noexcept { return group_->rank(); }
  /// A view addressing rank r for point-to-point traffic. Copies share
  /// this communicator's group state.
  [[nodiscard]] Communicator to_peer(std::size_t r) const {
    Communicator c(*this);
    c.gate_ = group_->gate_to(r);
    return c;
  }
  /// The collectives-layer communicator behind barrier() —
  /// broadcast/reduce/allreduce and non-blocking handles live there.
  [[nodiscard]] coll::Communicator& group() noexcept { return *group_; }

  // --- byte-level primitives ----------------------------------------------
  MpiRequest isend_bytes(std::span<const std::byte> data, core::Tag tag);
  MpiRequest irecv_bytes(std::span<std::byte> buffer, core::Tag tag);
  void send_bytes(std::span<const std::byte> data, core::Tag tag);
  RecvStatus recv_bytes(std::span<std::byte> buffer, core::Tag tag);

  // --- typed convenience (trivially copyable element types) ----------------
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  MpiRequest isend(std::span<const T> data, core::Tag tag) {
    return isend_bytes(std::as_bytes(data), tag);
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  MpiRequest irecv(std::span<T> buffer, core::Tag tag) {
    return irecv_bytes(std::as_writable_bytes(buffer), tag);
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send(std::span<const T> data, core::Tag tag) {
    send_bytes(std::as_bytes(data), tag);
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  RecvStatus recv(std::span<T> buffer, core::Tag tag) {
    return recv_bytes(std::as_writable_bytes(buffer), tag);
  }

  /// Simultaneous exchange (MPI_Sendrecv): both directions in flight at
  /// once, so the multi-rail engine can overlap them.
  RecvStatus sendrecv(std::span<const std::byte> send_data, core::Tag send_tag,
                      std::span<std::byte> recv_buffer, core::Tag recv_tag);

  /// Dissemination barrier over every rank (all ranks must be progressing
  /// concurrently — see coll::Communicator::wait).
  void barrier();

  [[nodiscard]] core::Session& session() noexcept { return group_->session(); }
  [[nodiscard]] core::GateId gate() const noexcept { return gate_; }

 private:
  /// Shared so copies stay cheap and agree on collective instance counters.
  std::shared_ptr<coll::Communicator> group_;
  /// Gate of the default point-to-point peer.
  core::GateId gate_;
};

}  // namespace nmad::api
