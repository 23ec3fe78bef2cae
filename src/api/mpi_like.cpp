#include "api/mpi_like.hpp"

#include "util/panic.hpp"

namespace nmad::api {

bool MpiRequest::test() const {
  if (send_) return send_->completed();
  if (recv_) return recv_->completed();
  return true;  // null request: trivially complete
}

void MpiRequest::wait() {
  if (send_) session_->wait(send_);
  if (recv_) session_->wait(recv_);
}

RecvStatus MpiRequest::status() const {
  NMAD_ASSERT(recv_ != nullptr, "status() on a non-receive request");
  NMAD_ASSERT(recv_->completed(), "status() before completion");
  return RecvStatus{recv_->received_len(), tag_};
}

MpiRequest Communicator::isend_bytes(std::span<const std::byte> data,
                                     core::Tag tag) {
  NMAD_ASSERT(tag < core::kReservedTagBase,
              "tag collides with the reserved (collective) tag space");
  MpiRequest req;
  req.session_ = &session();
  req.tag_ = tag;
  req.send_ = session().isend(gate_, tag, data);
  return req;
}

MpiRequest Communicator::irecv_bytes(std::span<std::byte> buffer, core::Tag tag) {
  NMAD_ASSERT(tag < core::kReservedTagBase,
              "tag collides with the reserved (collective) tag space");
  MpiRequest req;
  req.session_ = &session();
  req.tag_ = tag;
  req.recv_ = session().irecv(gate_, tag, buffer);
  return req;
}

void Communicator::send_bytes(std::span<const std::byte> data, core::Tag tag) {
  isend_bytes(data, tag).wait();
}

RecvStatus Communicator::recv_bytes(std::span<std::byte> buffer, core::Tag tag) {
  MpiRequest req = irecv_bytes(buffer, tag);
  req.wait();
  return req.status();
}

RecvStatus Communicator::sendrecv(std::span<const std::byte> send_data,
                                  core::Tag send_tag,
                                  std::span<std::byte> recv_buffer,
                                  core::Tag recv_tag) {
  MpiRequest recv = irecv_bytes(recv_buffer, recv_tag);
  MpiRequest send = isend_bytes(send_data, send_tag);
  send.wait();
  recv.wait();
  return recv.status();
}

void Communicator::barrier() {
  const bool ok = group_->barrier();
  NMAD_ASSERT(ok, "barrier failed (a peer's gate died)");
}

}  // namespace nmad::api
