// Unit tests: thread pool and parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "qols/util/thread_pool.hpp"

namespace {

using qols::util::parallel_for;
using qols::util::ThreadPool;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ThreadCountHonoured) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for(pool, 0, kN, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 10, 10, 1,
               [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> data(10, 0);
  parallel_for(pool, 0, data.size(), 1024,
               [&](std::size_t lo, std::size_t hi) {
                 for (std::size_t i = lo; i < hi; ++i) data[i] = 1;
               });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 10);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 1 << 18;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) values[i] = static_cast<double>(i % 7);
  std::atomic<long long> parallel_sum{0};
  parallel_for(pool, 0, kN, 1 << 10, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(values[i]);
    parallel_sum.fetch_add(local);
  });
  long long serial = 0;
  for (double v : values) serial += static_cast<long long>(v);
  EXPECT_EQ(parallel_sum.load(), serial);
}

TEST(ThreadPool, OnWorkerThreadDetectsOwnership) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.on_worker_thread());  // the test thread is not a worker
  std::atomic<int> seen_own{0};
  std::atomic<int> seen_other{0};
  pool.submit([&] {
    if (pool.on_worker_thread()) seen_own.fetch_add(1);
    if (other.on_worker_thread()) seen_other.fetch_add(1);
  });
  pool.wait_idle();
  EXPECT_EQ(seen_own.load(), 1);
  EXPECT_EQ(seen_other.load(), 0);
}

TEST(ParallelFor, NestedCallOnSamePoolRunsInlineInsteadOfDeadlocking) {
  // A task running on a pool worker that issues parallel_for on the SAME
  // pool must not block in wait_idle (it counts itself as active forever);
  // the nested call degrades to an inline loop. This is the trial-engine +
  // state-vector-kernel nesting pattern.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100000;  // > any inline-grain threshold
  std::atomic<std::size_t> total{0};
  parallel_for(pool, 0, kOuter, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel_for(pool, 0, kInner, 1, [&](std::size_t ilo, std::size_t ihi) {
        total.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelFor, GlobalPoolOverloadWorks) {
  std::atomic<std::size_t> count{0};
  parallel_for(0, 5000, 16, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 5000u);
}

/// Parks `count` workers of `pool` until release() — every one of them is
/// provably busy once the constructor returns.
class BlockedWorkers {
 public:
  BlockedWorkers(ThreadPool& pool, std::size_t count) : pool_(pool) {
    for (std::size_t i = 0; i < count; ++i) {
      pool_.submit([this] {
        started_.fetch_add(1);
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return released_; });
      });
    }
    while (started_.load() < count) std::this_thread::yield();
  }
  ~BlockedWorkers() { release(); }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    pool_.wait_idle();
  }

 private:
  ThreadPool& pool_;
  std::atomic<std::size_t> started_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(ParallelFor, CallerCompletesTheLoopWhileEveryWorkerIsBlocked) {
  ThreadPool pool(3);
  BlockedWorkers blocked(pool, pool.thread_count());
  constexpr std::size_t kN = 1000;
  std::vector<int> touched(kN, 0);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> all_on_caller{true};
  parallel_for(pool, 0, kN, 1, [&](std::size_t lo, std::size_t hi) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
    for (std::size_t i = lo; i < hi; ++i) ++touched[i];
  });
  EXPECT_TRUE(all_on_caller.load());
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0),
            static_cast<int>(kN));
  // The loop's helper tasks are still queued behind the blocked workers;
  // when they run they must find nothing left to do.
  blocked.release();
}

TEST(ParallelFor, DoesNotWaitForAnUnrelatedLongTask) {
  ThreadPool pool(4);
  BlockedWorkers blocked(pool, 1);  // a long task holds one worker
  std::atomic<std::size_t> covered{0};
  parallel_for(pool, 0, 100000, 64, [&](std::size_t lo, std::size_t hi) {
    covered.fetch_add(hi - lo);
  });
  // Returned while the unrelated task still runs (wait_idle() would hang).
  EXPECT_EQ(covered.load(), 100000u);
  blocked.release();
}

TEST(ParallelFor, ChunkBoundariesDependOnlyOnRangeAndThreadCount) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(pool, 10, 1010, 100, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace(lo, hi);
  });
  const std::set<std::pair<std::size_t, std::size_t>> want{
      {10, 260}, {260, 510}, {510, 760}, {760, 1010}};
  EXPECT_EQ(chunks, want);
}

TEST(ParallelFor, ExplicitChunkHandsOutThatManyIndicesPerClaim) {
  ThreadPool pool(4);
  std::atomic<std::size_t> claims{0};
  std::atomic<bool> all_single{true};
  parallel_for(
      pool, 0, 37, 1,
      [&](std::size_t lo, std::size_t hi) {
        claims.fetch_add(1);
        if (hi - lo != 1) all_single = false;
      },
      /*chunk=*/1);
  EXPECT_EQ(claims.load(), 37u);
  EXPECT_TRUE(all_single.load());
}

TEST(ParallelFor, NestedLoopInsideABatchClaimDoesNotDeadlock) {
  // One index per claim, like a service finish batch; each claim runs a
  // kernel-style parallel_for on the same pool. Claims on workers nest
  // inline; the claim on the calling thread fans out again.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 100000;
  std::atomic<std::size_t> total{0};
  parallel_for(
      pool, 0, kOuter, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          parallel_for(pool, 0, kInner, 1,
                       [&](std::size_t ilo, std::size_t ihi) {
                         total.fetch_add(ihi - ilo);
                       });
        }
      },
      /*chunk=*/1);
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelFor, FirstExceptionIsRethrownAfterEveryChunkRan) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(parallel_for(
                   pool, 0, 64, 1,
                   [&](std::size_t lo, std::size_t) {
                     ran.fetch_add(1);
                     if (lo % 8 == 3) throw std::runtime_error("chunk failed");
                   },
                   /*chunk=*/1),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64u);
}

}  // namespace
