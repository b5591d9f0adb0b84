// Tests for the worker pool underpinning parallel sample evaluation and
// the parallel sweep: ParallelFor index coverage, WaitIdle blocking
// semantics, and clean shutdown while producers are still submitting.
//
// ---------------------------------------------------------------------------
// Negative-compile reference: what the thread-safety annotations reject
// ---------------------------------------------------------------------------
// ThreadPool's queue_, in_flight_ and stop_ are JIGSAW_GUARDED_BY(mu_), and
// the ParallelFor per-call Completion::pending is guarded by its per-call
// mutex. Under the clang-analysis CI job (-Wthread-safety
// -Werror=thread-safety) each of the following — the bug classes TSan can
// only catch probabilistically — is a BUILD BREAK, not a test flake. They
// are kept here as comments because a positive build must stay green; to
// reproduce a rejection, paste one into thread_pool.cc and build with
// clang.
//
//   // (a) Unguarded read of a guarded field: "reading variable 'in_flight_'
//   //     requires holding mutex 'mu_'"
//   std::size_t ThreadPool::Depth() { return in_flight_; }
//
//   // (b) Forgotten unlock on an early return: "mutex 'mu_' is still held
//   //     at the end of function" (manual Lock without the MutexLock scope)
//   void ThreadPool::Broken() { mu_.Lock(); if (stop_) return; mu_.Unlock(); }
//
//   // (c) Waiting on a condition variable without its mutex: CondVar::Wait
//   //     is JIGSAW_REQUIRES(mu) — "calling function 'Wait' requires
//   //     holding mutex 'mu_' exclusively"
//   void ThreadPool::BadWait() { cv_idle_.Wait(&mu_); }
//
//   // (d) Calling a JIGSAW_EXCLUDES(mu_) method with mu_ held (the
//   //     self-deadlock shape: Submit inside a locked scope): "cannot call
//   //     function 'Submit' while mutex 'mu_' is held"
//   void ThreadPool::Reenter() { MutexLock l(&mu_); Submit([] {}); }
//
//   // (e) Touching another call's completion state without its lock:
//   //     "reading variable 'pending' requires holding mutex 'done.mu'"
//   ... inside ParallelFor: if (done.pending == 0) return;  // before lock
// ---------------------------------------------------------------------------

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace jigsaw {
namespace {

// The annotated primitives must behave exactly like the raw std types
// they wrap: Mutex provides mutual exclusion, MutexLock scopes it,
// CondVar::Wait releases/reacquires.
TEST(AnnotatedMutexTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mu;
  int counter = 0;  // guarded by mu by convention (local: not annotatable)
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, 4000);
}

TEST(AnnotatedMutexTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    // If Wait failed to release mu, the signaller could never set ready
    // and this would deadlock (caught by the 300s CTest timeout).
    while (!ready) cv.Wait(&mu);
    EXPECT_TRUE(ready);
  }
  signaller.join();
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(8);
  std::atomic<std::size_t> calls{0};
  pool.ParallelFor(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0u);
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1u);
  // Fewer indices than threads: every index still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForIsReentrantAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilSubmittedWorkFinishes) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1, std::memory_order_release);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(std::memory_order_acquire), 8);
}

TEST(ThreadPoolTest, WaitIdleReturnsImmediatelyWhenIdle) {
  ThreadPool pool(2);
  pool.WaitIdle();  // nothing submitted: must not deadlock
  pool.Submit([] {});
  pool.WaitIdle();
  pool.WaitIdle();  // idempotent after drain
}

TEST(ThreadPoolTest, DestructorDrainsQueueWithoutDeadlock) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor runs here with tasks still queued.
  }
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPoolTest, ConcurrentSubmittersAllExecute) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&pool, &executed] {
        for (int i = 0; i < 200; ++i) {
          pool.Submit([&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (auto& t : producers) t.join();
    pool.WaitIdle();
    EXPECT_EQ(executed.load(), 800);
  }
  EXPECT_EQ(executed.load(), 800);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersCompleteIndependently) {
  // The serving layer's contract: many client threads issue ParallelFor
  // on ONE shared pool, and each call returns exactly when ITS items are
  // done — never waiting on (or racing with) a sibling's in-flight work.
  constexpr int kCallers = 8;
  constexpr std::size_t kItems = 257;  // straddles chunk boundaries
  constexpr int kRounds = 5;
  ThreadPool pool(4);
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kItems);
  std::vector<std::thread> callers;
  // NOT vector<bool>: packed bits share words across callers (data race).
  std::vector<std::atomic<bool>> complete_on_return(kCallers);
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      bool complete = true;
      for (int round = 0; round < kRounds; ++round) {
        pool.ParallelFor(kItems, [&, c](std::size_t i) {
          hits[c][i].fetch_add(1, std::memory_order_relaxed);
        });
        // Per-call completion: after ParallelFor returns, every one of
        // THIS caller's items for this round must have run.
        for (std::size_t i = 0; i < kItems; ++i) {
          if (hits[c][i].load(std::memory_order_relaxed) < round + 1) {
            complete = false;
          }
        }
      }
      complete_on_return[c].store(complete, std::memory_order_relaxed);
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(complete_on_return[c]) << "caller " << c;
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(hits[c][i].load(), kRounds)
          << "caller " << c << " item " << i;
    }
  }
}

}  // namespace
}  // namespace jigsaw
