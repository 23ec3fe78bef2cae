// Recycling buffer arenas for the packet hot path.
//
// Every packet the strategies emit needs a small header block (packet
// header + seg headers) and — only when segments are aggregated — a
// contiguous staging area for the copied payloads. Allocating those with
// operator new per packet puts the allocator on the paper's
// latency-critical just-in-time packing path; a BufferPool instead keeps a
// freelist of retired blocks (capacity preserved) and hands them back out,
// so steady-state packet construction performs zero heap allocations.
//
// Lifetime: PooledBuffer is an RAII handle; destroying it returns the
// storage to its pool's freelist. Blocks ride inside drv::SendDesc through
// the driver, so a block is recycled exactly when the driver drops the
// descriptor after local send completion. The pool's bookkeeping lives in
// a shared state block, so handles may safely outlive the BufferPool
// frontend (teardown order between gates and in-flight driver queues does
// not matter; orphaned storage is simply freed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace nmad::obs {
class MetricsRegistry;
}  // namespace nmad::obs

namespace nmad::proto {

class BufferPool;

/// Owning handle to one block of bytes, usually drawn from (and returned
/// to) a BufferPool. Move-only; empty handles are valid and inert.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  ~PooledBuffer() { release(); }

  PooledBuffer(PooledBuffer&& other) noexcept
      : storage_(std::move(other.storage_)), state_(std::move(other.state_)),
        live_(std::exchange(other.live_, false)),
        fresh_(std::exchange(other.fresh_, false)) {}
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      release();
      storage_ = std::move(other.storage_);
      state_ = std::move(other.state_);
      live_ = std::exchange(other.live_, false);
      fresh_ = std::exchange(other.fresh_, false);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  [[nodiscard]] bool live() const noexcept { return live_; }
  /// True when acquire() had to heap-allocate this block (a pool miss) —
  /// the signal behind the allocs_hot_path counter.
  [[nodiscard]] bool fresh() const noexcept { return fresh_; }
  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return storage_;
  }
  /// Mutable backing store for builders (append/patch while encoding).
  [[nodiscard]] std::vector<std::byte>& storage() noexcept { return storage_; }

  /// Hand the storage back to the pool (or free it) immediately.
  void release() noexcept;

 private:
  friend class BufferPool;
  struct PoolState;
  PooledBuffer(std::vector<std::byte> storage, std::shared_ptr<PoolState> state)
      : storage_(std::move(storage)), state_(std::move(state)), live_(true) {}

  std::vector<std::byte> storage_;
  std::shared_ptr<PoolState> state_;
  bool live_ = false;
  bool fresh_ = false;
};

/// A freelist of byte blocks with hit/miss accounting. Single-threaded,
/// like everything the progression engine drives.
class BufferPool {
 public:
  /// `block_capacity` is reserved in every freshly allocated block so the
  /// common packet sizes never regrow; `max_free` bounds the retained
  /// freelist (blocks beyond it are freed on return).
  explicit BufferPool(std::size_t block_capacity = 0,
                      std::size_t max_free = kDefaultMaxFree);

  /// Take a block (empty, capacity preserved) from the freelist, or
  /// allocate a fresh one (a pool miss — the hot path's only allocation).
  [[nodiscard]] PooledBuffer acquire();

  [[nodiscard]] std::size_t free_count() const noexcept;
  /// Freelist reuse / fresh allocations / blocks returned for recycling.
  [[nodiscard]] std::uint64_t hit_count() const noexcept;
  [[nodiscard]] std::uint64_t miss_count() const noexcept;
  [[nodiscard]] std::uint64_t recycled_count() const noexcept;

  /// Register `<prefix>hits`, `<prefix>misses`, `<prefix>recycled` into the
  /// metrics tree (compiled out with NMAD_METRICS=OFF like all obs types).
  void register_into(obs::MetricsRegistry& registry,
                     const std::string& prefix) const;

  static constexpr std::size_t kDefaultMaxFree = 64;

 private:
  std::shared_ptr<PooledBuffer::PoolState> state_;
};

}  // namespace nmad::proto
