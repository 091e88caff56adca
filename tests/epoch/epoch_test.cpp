// EpochManager / EpochGuard reclamation-protocol tests: pins block
// advancement, retire batches flush on advance, nothing is freed while a
// guard that could reference it stays pinned (ASan turns a protocol hole
// into a hard use-after-free failure), orphan hand-off, the ThreadPool
// idle hook, and multi-threaded churn with exact leak accounting.
#include "epoch/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace amac {
namespace {

/// Counting deleter: ctx is an atomic<uint64_t> bumped per free.
void CountFree(void* /*obj*/, void* ctx) {
  static_cast<std::atomic<uint64_t>*>(ctx)->fetch_add(1);
}

/// Heap deleter: obj is a new'd int64_t (ASan watches the free).
void DeleteInt(void* obj, void* ctx) {
  static_cast<std::atomic<uint64_t>*>(ctx)->fetch_add(1);
  delete static_cast<int64_t*>(obj);
}

TEST(EpochTest, PinBlocksAdvancePastPinnedEpoch) {
  EpochManager mgr;
  EpochGuard guard(&mgr);
  const uint64_t e = mgr.current_epoch();
  EXPECT_EQ(guard.pinned_epoch(), e);
  // The guard is pinned AT the current epoch, so one advance succeeds...
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.current_epoch(), e + 1);
  // ...but the guard is now one behind and blocks the next.
  EXPECT_FALSE(mgr.TryAdvance());
  EXPECT_FALSE(mgr.TryAdvance());
  EXPECT_EQ(mgr.current_epoch(), e + 1);
  // Refresh catches the guard up; the epoch is free to move again.
  guard.Refresh();
  EXPECT_EQ(guard.pinned_epoch(), e + 1);
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.advances(), 2u);
}

TEST(EpochTest, RetireBatchFlushesOnAdvance) {
  EpochManager::Options options;
  options.retire_batch = 4;
  EpochManager mgr(options);
  std::atomic<uint64_t> freed{0};
  EpochGuard guard(&mgr);
  // First batch: retired at epoch e; the batch-boundary advance moves the
  // global to e+1, which is NOT enough for the e+2 grace period.
  for (int i = 0; i < 4; ++i) guard.Retire(nullptr, &CountFree, &freed);
  EXPECT_EQ(mgr.retired(), 4u);
  EXPECT_EQ(freed.load(), 0u);
  // Refresh un-blocks the guard's own pin; the second batch's advance
  // reaches e+2 and the first batch flushes.
  guard.Refresh();
  for (int i = 0; i < 4; ++i) guard.Retire(nullptr, &CountFree, &freed);
  EXPECT_EQ(freed.load(), 4u);
  EXPECT_EQ(mgr.reclaimed(), 4u);
}

TEST(EpochTest, NoReclaimWhileAnotherGuardIsPinned) {
  EpochManager::Options options;
  options.retire_batch = 1;  // sweep on every retire
  EpochManager mgr(options);
  std::atomic<uint64_t> freed{0};
  EpochGuard reader(&mgr);
  int64_t* obj = new int64_t(42);
  {
    EpochGuard writer(&mgr);
    writer.Retire(obj, &DeleteInt, &freed);
    // Hammer the reclaim paths: the reader's pin caps the global at
    // pin+1 < retire_epoch+2, so the object must survive all of it.
    for (int i = 0; i < 64; ++i) {
      writer.Refresh();
      writer.Retire(nullptr, &CountFree, &freed);
      mgr.AdvanceAndReclaim();
    }
    EXPECT_EQ(*obj, 42);  // ASan: fails hard if the epoch freed it early
    EXPECT_EQ(freed.load(), 0u);
  }
  // Writer gone (leftovers orphaned), reader still pinned: still nothing.
  mgr.AdvanceAndReclaim();
  EXPECT_EQ(freed.load(), 0u);
  { EpochGuard release_reader = std::move(reader); }
  // All guards gone: two advances put every retiree past its grace period.
  mgr.AdvanceAndReclaim();
  mgr.AdvanceAndReclaim();
  mgr.AdvanceAndReclaim();
  EXPECT_EQ(mgr.retired(), mgr.reclaimed());
  EXPECT_EQ(freed.load(), 65u);
}

TEST(EpochTest, ReleasedGuardOrphansItsBacklogForLaterReclaim) {
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  {
    EpochGuard guard(&mgr);
    guard.Retire(nullptr, &CountFree, &freed);
  }
  // The guard died before its retiree's grace period: the retiree moved to
  // the orphan list, not freed (batch size default 64 > 1, no sweep ran).
  EXPECT_EQ(mgr.retired(), 1u);
  // With no guards pinned, each AdvanceAndReclaim moves one epoch; two
  // moves satisfy the +2 grace and the orphan sweep frees it.
  mgr.AdvanceAndReclaim();
  mgr.AdvanceAndReclaim();
  EXPECT_EQ(freed.load(), 1u);
  EXPECT_EQ(mgr.reclaimed(), 1u);
}

TEST(EpochTest, ReclaimAllFreesEverythingOnceGuardsAreGone) {
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  {
    EpochGuard guard(&mgr);
    for (int i = 0; i < 10; ++i) guard.Retire(nullptr, &CountFree, &freed);
  }
  EXPECT_EQ(mgr.active_guards(), 0u);
  mgr.ReclaimAll();  // epoch-independent drain
  EXPECT_EQ(freed.load(), 10u);
  EXPECT_EQ(mgr.retired(), mgr.reclaimed());
}

TEST(EpochTest, MovedGuardKeepsThePin) {
  EpochManager mgr;
  EpochGuard a(&mgr);
  EXPECT_EQ(mgr.active_guards(), 1u);
  EpochGuard b = std::move(a);
  EXPECT_EQ(mgr.active_guards(), 1u);  // the slot moved, not duplicated
  b.Refresh();
  EXPECT_EQ(b.pinned_epoch(), mgr.current_epoch());
}

TEST(EpochTest, ThreadPoolIdleHookDrivesReclamation) {
  ThreadPool pool(3);  // 2 background workers to run the idle hook
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  pool.SetIdleTask([&mgr] { return mgr.AdvanceAndReclaim(); });
  // A lagging reader holds the epoch while a task retires a node, so the
  // workers go idle with the retiree still pending.
  std::optional<EpochGuard> reader(std::in_place, &mgr);
  pool.Submit([&mgr, &freed] {
    EpochGuard guard(&mgr);
    guard.Retire(nullptr, &CountFree, &freed);
  });
  while (mgr.retired() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(freed.load(), 0u);
  // The reader leaves and no task ever arrives again: only idle workers
  // still polling their backlog can drive the two advances that free it.
  const auto start = std::chrono::steady_clock::now();
  reader.reset();
  const auto deadline = start + std::chrono::seconds(10);
  while (freed.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto latency = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(freed.load(), 1u);
  EXPECT_GE(mgr.advances(), 2u);
  // Idle workers re-poll a pending backlog every millisecond.
  EXPECT_LT(latency, std::chrono::seconds(1));
}

TEST(EpochTest, ConcurrentChurnReclaimsEverythingEventually) {
  // Threads allocate, publish, retire, and refresh concurrently; after the
  // drain every retirement must have been freed exactly once (ASan doubles
  // as the double-free/leak detector).
  EpochManager::Options options;
  options.retire_batch = 8;
  EpochManager mgr(options);
  std::atomic<uint64_t> freed{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mgr, &freed, t] {
      Rng rng(0x9e37u + static_cast<uint64_t>(t));
      EpochGuard guard(&mgr);
      for (int i = 0; i < kPerThread; ++i) {
        guard.Retire(new int64_t(i), &DeleteInt, &freed);
        if ((rng.Next() & 7u) == 0) guard.Refresh();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  mgr.ReclaimAll();
  EXPECT_EQ(mgr.retired(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(mgr.retired(), mgr.reclaimed());
  EXPECT_EQ(freed.load(), mgr.reclaimed());
  EXPECT_EQ(mgr.active_guards(), 0u);
}

}  // namespace
}  // namespace amac
