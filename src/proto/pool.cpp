#include "proto/pool.hpp"

#include "obs/registry.hpp"
#include "util/panic.hpp"

namespace nmad::proto {

struct PooledBuffer::PoolState {
  /// Retired blocks, capacity preserved. Reserved to max_free up front so
  /// returning a block never allocates (release() is noexcept).
  std::vector<std::vector<std::byte>> free;
  std::size_t block_capacity = 0;
  std::size_t max_free = BufferPool::kDefaultMaxFree;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t recycled = 0;
};

void PooledBuffer::release() noexcept {
  if (!live_) return;
  live_ = false;
  fresh_ = false;
  if (state_->free.size() < state_->max_free) {
    storage_.clear();  // keeps capacity
    state_->recycled += 1;
    state_->free.push_back(std::move(storage_));
  }
  storage_ = std::vector<std::byte>();
  state_.reset();
}

BufferPool::BufferPool(std::size_t block_capacity, std::size_t max_free)
    : state_(std::make_shared<PooledBuffer::PoolState>()) {
  NMAD_ASSERT(max_free >= 1, "buffer pool needs room for at least one block");
  state_->block_capacity = block_capacity;
  state_->max_free = max_free;
  state_->free.reserve(max_free);
}

PooledBuffer BufferPool::acquire() {
  auto& st = *state_;
  if (!st.free.empty()) {
    std::vector<std::byte> block = std::move(st.free.back());
    st.free.pop_back();
    st.hits += 1;
    return PooledBuffer(std::move(block), state_);
  }
  st.misses += 1;
  std::vector<std::byte> block;
  block.reserve(st.block_capacity);
  PooledBuffer out(std::move(block), state_);
  out.fresh_ = true;
  return out;
}

std::size_t BufferPool::free_count() const noexcept { return state_->free.size(); }
std::uint64_t BufferPool::hit_count() const noexcept { return state_->hits; }
std::uint64_t BufferPool::miss_count() const noexcept { return state_->misses; }
std::uint64_t BufferPool::recycled_count() const noexcept {
  return state_->recycled;
}

void BufferPool::register_into(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  registry.add_raw(prefix + "hits", &state_->hits);
  registry.add_raw(prefix + "misses", &state_->misses);
  registry.add_raw(prefix + "recycled", &state_->recycled);
}

}  // namespace nmad::proto
