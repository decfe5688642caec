#include "runtime/sweep_runner.hpp"

namespace cps::runtime {

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::uint64_t pack(std::uint64_t front, std::uint64_t back) { return front << 32 | back; }
std::uint64_t front_of(std::uint64_t word) { return word >> 32; }
std::uint64_t back_of(std::uint64_t word) { return word & 0xFFFFFFFFULL; }

}  // namespace

StealingBlocks::StealingBlocks(ShardRange shard, std::size_t workers)
    : begin_(shard.begin), blocks_(workers) {
  CPS_ENSURE(workers >= 1 && workers <= shard.size(),
             "StealingBlocks: need between one worker and one per index");
  CPS_ENSURE(shard.size() < (std::size_t{1} << 32),
             "StealingBlocks: a shard holds fewer than 2^32 indices");
  for (std::size_t w = 0; w < workers; ++w) {
    const ShardRange block = shard_range(shard.size(), w, workers);
    blocks_[w].word.store(pack(block.begin, block.end), std::memory_order_relaxed);
  }
}

// Relaxed atomics suffice: every successful CAS reads the latest word, so
// each index is claimed exactly once, and the results the claimants write
// are read only after parallel_map has joined them.
bool StealingBlocks::claim(std::size_t worker, IndexSpan& span) {
  if (stopped_.load(std::memory_order_relaxed)) return false;
  std::atomic<std::uint64_t>& own = blocks_[worker].word;
  std::uint64_t word = own.load(std::memory_order_relaxed);
  while (front_of(word) < back_of(word)) {
    const std::uint64_t front = front_of(word);
    const std::uint64_t take = std::max<std::uint64_t>(1, (back_of(word) - front) / 4);
    if (own.compare_exchange_weak(word, pack(front + take, back_of(word)),
                                  std::memory_order_relaxed)) {
      span.begin = begin_ + front;
      span.end = span.begin + take;
      return true;
    }
  }
  for (std::size_t offset = 1; offset < blocks_.size(); ++offset) {
    std::atomic<std::uint64_t>& victim = blocks_[(worker + offset) % blocks_.size()].word;
    word = victim.load(std::memory_order_relaxed);
    while (front_of(word) < back_of(word)) {
      const std::uint64_t back = back_of(word) - 1;
      if (victim.compare_exchange_weak(word, pack(front_of(word), back),
                                       std::memory_order_relaxed)) {
        span.begin = begin_ + back;
        span.end = span.begin + 1;
        return true;
      }
    }
  }
  return false;
}

}  // namespace cps::runtime
