#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace amac {
namespace {

TEST(ParallelForTest, RunsEveryThreadIdExactlyOnce) {
  std::set<uint32_t> seen;
  std::mutex mu;
  ParallelFor(6, [&](uint32_t tid) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(tid).second);
  });
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 5u);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::thread::id worker;
  ParallelFor(1, [&](uint32_t) { worker = std::this_thread::get_id(); });
  EXPECT_EQ(worker, caller);
}

TEST(PartitionRangeTest, CoversWholeRangeWithoutOverlap) {
  for (uint64_t total : {0ull, 1ull, 7ull, 100ull, 101ull, 1024ull}) {
    for (uint32_t parts : {1u, 2u, 3u, 7u, 16u}) {
      uint64_t covered = 0;
      uint64_t prev_end = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        const Range r = PartitionRange(total, parts, p);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_LE(r.begin, r.end);
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(prev_end, total);
    }
  }
}

TEST(PartitionRangeTest, SizesDifferByAtMostOne) {
  for (uint64_t total : {10ull, 97ull, 1000ull}) {
    for (uint32_t parts : {3u, 7u, 11u}) {
      uint64_t min_size = UINT64_MAX, max_size = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        const Range r = PartitionRange(total, parts, p);
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(MorselCursorTest, CoversEveryIndexExactlyOnce) {
  MorselCursor cursor(1000, 64);
  std::vector<uint32_t> seen(1000, 0);
  Range r;
  uint64_t morsels = 0;
  while (cursor.Next(&r)) {
    ++morsels;
    for (uint64_t i = r.begin; i < r.end; ++i) ++seen[i];
  }
  EXPECT_EQ(morsels, (1000 + 63) / 64u);
  for (uint32_t count : seen) EXPECT_EQ(count, 1u);
}

TEST(MorselCursorTest, LastMorselIsTruncated) {
  MorselCursor cursor(100, 64);
  Range r;
  ASSERT_TRUE(cursor.Next(&r));
  EXPECT_EQ(r.size(), 64u);
  ASSERT_TRUE(cursor.Next(&r));
  EXPECT_EQ(r.begin, 64u);
  EXPECT_EQ(r.end, 100u);
  EXPECT_FALSE(cursor.Next(&r));
}

TEST(MorselCursorTest, ZeroTotalYieldsNothing) {
  MorselCursor cursor(0, 16);
  Range r;
  EXPECT_FALSE(cursor.Next(&r));
}

TEST(ThreadPoolTest, SizeOneRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  ForRanges(&pool, 10, [&](uint32_t part, Range r) {
    EXPECT_EQ(part, 0u);
    EXPECT_EQ(r.begin, 0u);
    EXPECT_EQ(r.end, 10u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

// The threads of `pool`: every ForRanges part waits until all have
// started, so no thread can run two of them.
std::set<std::thread::id> TeamThreadIds(ThreadPool& pool) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  ForRanges(&pool, 0, [&](uint32_t, Range) {
    std::unique_lock<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait(lock, [&] { return ids.size() == pool.size(); });
  });
  return ids;
}

TEST(ThreadPoolTest, WorkersPersistAcrossRuns) {
  ThreadPool pool(3);
  const std::set<std::thread::id> team = TeamThreadIds(pool);
  EXPECT_EQ(team.size(), 3u);
  std::mutex mu;
  std::set<std::thread::id> seen;
  for (int rep = 0; rep < 50; ++rep) {
    ForRanges(&pool, 64, [&](uint32_t, Range) {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
    EXPECT_TRUE(
        std::includes(team.begin(), team.end(), seen.begin(), seen.end()))
        << "rep " << rep;
  }
  EXPECT_EQ(TeamThreadIds(pool), team);
}

TEST(ThreadPoolTest, ManySequentialRunsAllComplete) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int rep = 0; rep < 200; ++rep) {
    ForRanges(&pool, 4, [&](uint32_t part, Range) {
      total.fetch_add(part + 1);
    });
  }
  EXPECT_EQ(total.load(), 200u * (1 + 2 + 3 + 4));
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  ForRanges(&pool, 1, [&](uint32_t, Range) { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(MorselCursorTest, ConcurrentClaimsPartitionTheInput) {
  const uint64_t total = 1 << 18;
  MorselCursor cursor(total, 512);
  constexpr uint32_t kThreads = 8;
  std::vector<uint64_t> claimed(kThreads, 0);
  ParallelFor(kThreads, [&](uint32_t tid) {
    Range r;
    while (cursor.Next(&r)) claimed[tid] += r.size();
  });
  uint64_t sum = 0;
  for (uint64_t c : claimed) sum += c;
  EXPECT_EQ(sum, total);
}

}  // namespace
}  // namespace amac
