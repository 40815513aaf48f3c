#include "qols/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace qols::util {

namespace {
// Owning pool of the current thread, if it is a pool worker.
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_current_pool == this;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

/// One parallel_for call's shared state. Helper tasks hold it by shared_ptr:
/// a helper that starts after the caller has returned finds every chunk
/// claimed and leaves without touching `fn`.
struct Loop {
  Loop(const std::function<void(std::size_t, std::size_t)>& f,
       std::size_t b, std::size_t e, std::size_t c)
      : fn(f), begin(b), end(e), chunk(c), chunks((e - b + c - 1) / c) {}

  const std::function<void(std::size_t, std::size_t)>& fn;
  const std::size_t begin, end, chunk, chunks;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::exception_ptr error;

  /// Claims and runs chunks until none is left.
  void work() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t lo = begin + c * chunk;
      std::exception_ptr err;
      try {
        fn(lo, std::min(end, lo + chunk));
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (err && !error) error = err;
      if (++done == chunks) cv.notify_all();
    }
  }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  const std::size_t workers = pool.thread_count();
  if (n <= grain || workers <= 1 || pool.on_worker_thread()) {
    fn(begin, end);
    return;
  }
  // Default: one chunk per worker, but never below the grain size.
  if (chunk == 0) chunk = std::max(grain, (n + workers - 1) / workers);
  const auto loop = std::make_shared<Loop>(fn, begin, end, chunk);
  // The caller is one of the claimants, so at most workers - 1 helpers keep
  // the number of busy threads at the pool size.
  const std::size_t helpers = std::min(loop->chunks, workers) - 1;
  for (std::size_t i = 0; i < helpers; ++i) {
    pool.submit([loop] { loop->work(); });
  }
  loop->work();
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock, [&] { return loop->done == loop->chunks; });
  if (loop->error) std::rethrow_exception(loop->error);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for(ThreadPool::global(), begin, end, grain, fn);
}

}  // namespace qols::util
