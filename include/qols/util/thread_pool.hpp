#pragma once
// Minimal fixed-size thread pool and a blocking parallel_for built on it.
//
// The state-vector kernels in qols::quantum are embarrassingly parallel over
// contiguous amplitude ranges; parallel_for slices the index space into
// chunks. We use explicit threads (rather than OpenMP pragmas) so the chunk
// boundaries are a pure function of the (range, thread-count) pair, which
// keeps floating-point results reproducible across runs. Which thread runs
// a chunk is not fixed: the caller and the pool's workers claim chunks from
// a shared counter.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qols::util {

/// Fixed set of worker threads consuming a shared task queue.
/// Tasks are std::function<void()>; submit() is thread-safe.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution by any worker.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. parallel_for
  /// uses this to degrade to an inline loop on a worker: the nested loop's
  /// helper tasks would queue behind the very chunk that is waiting for
  /// them. This is what keeps nesting cheap — e.g. TrialEngine shards trials
  /// over the pool while each trial's state-vector kernels call parallel_for
  /// on the same pool.
  bool on_worker_thread() const noexcept;

  /// Process-wide shared pool (lazily constructed with default size).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Runs fn(lo, hi) over [begin, end) split into contiguous chunks, and
/// blocks until every chunk has run. The calling thread claims chunks
/// alongside the pool's workers, so the loop completes even while every
/// worker is busy, and completion is tracked per call: an unrelated task on
/// the pool never delays it. The first exception thrown by a chunk is
/// rethrown on the caller once every chunk has finished.
///
/// Chunks hold `chunk` indices each; 0 (the default) means one chunk per
/// thread, ceil(n / thread_count) indices but never fewer than `grain`.
/// Boundaries depend only on the range, the thread count and these two
/// arguments. Ranges of at most `grain` indices, single-thread pools and
/// calls from one of the pool's own workers run inline on the calling
/// thread (that avoids task overhead on the tiny registers used for small
/// k, and makes nested loops safe).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t chunk = 0);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace qols::util
