// Work-stealing thread pool for the experiment-runner subsystem, and
// parallel_map, the one ordered fan-out loop over it.
//
// Each worker owns a deque of pending tasks.  Submissions are distributed
// round-robin across the worker deques; a worker pops its own deque from
// the back (LIFO, cache-warm) and, when empty, steals from the front of a
// peer's deque (FIFO, oldest first), so uneven parameter grids keep every
// core busy.  Results and exceptions propagate through std::future, which
// is what parallel_map relies on for exception-safe fan-out.  SweepRunner
// (one task per range-stealing worker, each claiming spans of a parameter
// grid itself) and the exact slot allocator (subtrees of one search
// level) both fan out through parallel_map.
//
// The deques share one mutex: the tasks are coarse (a sweep worker's
// whole share of a grid, or a search subtree of milliseconds to seconds),
// so queue contention is negligible and a single lock keeps the
// sleep/wake protocol trivially correct.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace cps::runtime {

/// Work-stealing thread pool: per-worker deques, LIFO own-pop,
/// FIFO steal-from-peer (see the file comment for the full protocol).
class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least one).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains every task already submitted, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads actually spawned.
  std::size_t thread_count() const { return workers_.size(); }

  /// Discard every not-yet-started task.  Their futures report
  /// std::future_error (broken promise).  In-flight tasks finish normally.
  void cancel_pending();

  /// Schedule `fn` and return a future for its result.  An exception
  /// thrown by `fn` is captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t self);
  /// Pop from own deque (back) or steal from a peer (front).  Must be
  /// called with `mutex_` held.  Returns false when no task is available.
  bool take_task(std::size_t self, std::function<void()>& task);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;  // round-robin submission cursor
  bool stopping_ = false;
};

/// Evaluate fn(i) for every i in [0, count) and return the results in
/// index order.  jobs <= 1 runs every call inline on the calling thread,
/// in index order; otherwise the calls run on a pool of
/// min(jobs, count) workers.  fn may be called concurrently, so any state
/// it shares across indices must be read-only or monotone (relaxed
/// atomics, runtime::SharedIncumbent).  When a call throws, the
/// not-yet-started calls are dropped and the exception propagates once
/// the in-flight calls have finished.
template <typename Fn>
auto parallel_map(int jobs, std::size_t count, const Fn& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  std::vector<Result> results;
  results.reserve(count);
  if (jobs <= 1 || count == 0) {
    for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
    return results;
  }

  ThreadPool pool(std::min(static_cast<std::size_t>(jobs), count));
  std::vector<std::future<Result>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    futures.push_back(pool.submit([&fn, i]() { return fn(i); }));
  try {
    for (auto& future : futures) results.push_back(future.get());
  } catch (...) {
    // Fail fast: drop the queued calls so the pool's destructor joins
    // after the in-flight ones instead of draining the whole range.
    pool.cancel_pending();
    throw;
  }
  return results;
}

}  // namespace cps::runtime
