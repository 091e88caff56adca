// Team-initialised bucket arrays and lazily constructed node pools.
//
// A table built with a team must be indistinguishable from one built on
// the calling thread, whether the team size divides the bucket count or
// exceeds it (some threads get an empty range); and a node handed
// out of a reserved pool must come back fully constructed, including after
// Clear() hands the same memory out again.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "groupby/agg_table.h"
#include "hashtable/chained_table.h"

namespace amac {
namespace {

// Three threads: a power-of-two bucket count never divides evenly.
constexpr uint32_t kTeamSize = 3;

// Expected tuples giving one bucket (fewer than the team's threads), tens
// of KiB of buckets, and several MiB.
constexpr uint64_t kTinyTuples = 1;
constexpr uint64_t kSmallTuples = 1000;
constexpr uint64_t kLargeTuples = uint64_t{1} << 18;

void ExpectEmptyBucket(const BucketNode& b, uint64_t i) {
  EXPECT_EQ(b.count, 0) << i;
  EXPECT_EQ(b.tuples[0].key, BucketNode::kEmptySlotKey) << i;
  EXPECT_EQ(b.tuples[1].key, BucketNode::kEmptySlotKey) << i;
  EXPECT_EQ(b.next, nullptr) << i;
  EXPECT_FALSE(b.latch.IsHeld()) << i;
}

void ExpectEmptyGroup(const GroupNode& g, uint64_t i) {
  EXPECT_EQ(g.used, 0) << i;
  EXPECT_EQ(g.key, GroupNode::kEmptyGroupKey) << i;
  EXPECT_EQ(g.count, 0) << i;
  EXPECT_EQ(g.sum, 0) << i;
  EXPECT_EQ(g.min, 0) << i;
  EXPECT_EQ(g.max, 0) << i;
  EXPECT_EQ(g.sumsq, 0u) << i;
  EXPECT_EQ(g.next, nullptr) << i;
  EXPECT_FALSE(g.latch.IsHeld()) << i;
}

TEST(TeamInitTest, ForRangesCoversEveryIndexOnce) {
  ThreadPool team(kTeamSize);
  for (ThreadPool* t : {static_cast<ThreadPool*>(nullptr), &team}) {
    for (const uint64_t count : {uint64_t{1}, uint64_t{2}, uint64_t{1000}}) {
      std::vector<uint32_t> hits(count, 0);
      std::vector<uint32_t> parts_seen(kTeamSize, 0);
      ForRanges(t, count, [&](uint32_t part, Range r) {
        ++parts_seen[part];
        for (uint64_t i = r.begin; i < r.end; ++i) ++hits[i];
      });
      for (uint64_t i = 0; i < count; ++i) ASSERT_EQ(hits[i], 1u) << i;
      // Every part runs once, with an empty range when count < team size.
      const uint32_t parts = t != nullptr ? kTeamSize : 1;
      for (uint32_t p = 0; p < kTeamSize; ++p) {
        EXPECT_EQ(parts_seen[p], p < parts ? 1u : 0u) << "count=" << count;
      }
    }
  }
}

// Runs ForRanges over [0, kCount) on `team` and checks that every part ran
// once and every index was visited once.
void ExpectForRangesCoversOnce(ThreadPool* team) {
  constexpr uint64_t kCount = 1000;
  std::vector<uint32_t> hits(kCount, 0);
  std::vector<uint32_t> parts_seen(team->size(), 0);
  ForRanges(team, kCount, [&](uint32_t part, Range r) {
    ++parts_seen[part];
    for (uint64_t i = r.begin; i < r.end; ++i) ++hits[i];
  });
  for (uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i], 1u) << i;
  for (uint32_t p = 0; p < team->size(); ++p) EXPECT_EQ(parts_seen[p], 1u);
}

TEST(TeamInitTest, ForRangesFromATaskFinishesWhileOtherWorkersAreBlocked) {
  std::mutex mu;
  std::condition_variable cv;
  uint32_t blocked = 0;
  bool release = false;
  bool done = false;
  ThreadPool team(kTeamSize);
  // Hold every worker but one inside a task.
  for (uint32_t w = 0; w + 2 < kTeamSize; ++w) {
    team.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocked == kTeamSize - 2; });
  }
  // The last worker calls ForRanges; no other thread is free to run its
  // parts, so it must run them itself.
  team.Submit([&] {
    ExpectForRangesCoversOnce(&team);
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] {
    return done;
  })) << "ForRanges inside a task did not finish";
  release = true;
  cv.notify_all();
  // Wait for the task so its lambda no longer touches this frame.
  cv.wait(lock, [&] { return done; });
}

TEST(TeamInitTest, ForRangesBehindQueuedTasksFinishesAndRunsEachOnce) {
  constexpr uint32_t kTasks = 64;
  std::vector<std::atomic<uint32_t>> runs(kTasks);
  ThreadPool team(kTeamSize);
  for (uint32_t i = 0; i < kTasks; ++i) {
    team.Submit([&runs, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      runs[i].fetch_add(1);
    });
  }
  ExpectForRangesCoversOnce(&team);
  // Its parts were queued behind every task, so all tasks have started.
  for (uint32_t i = 0; i < kTasks; ++i) {
    while (runs[i].load() == 0) std::this_thread::yield();
  }
  for (uint32_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1u) << i;
}

TEST(TeamInitTest, ChainedTableMatchesSerialInit) {
  ThreadPool team(kTeamSize);
  for (const uint64_t tuples : {kTinyTuples, kSmallTuples, kLargeTuples}) {
    const ChainedHashTable serial(tuples, ChainedHashTable::Options{});
    const ChainedHashTable teamed(tuples, ChainedHashTable::Options{}, &team);
    ASSERT_EQ(teamed.num_buckets(), serial.num_buckets());
    if (tuples == kTinyTuples) {
      ASSERT_LT(teamed.num_buckets(), kTeamSize);
    } else {
      ASSERT_NE(teamed.num_buckets() % kTeamSize, 0u);
    }
    for (uint64_t i = 0; i < teamed.num_buckets(); ++i) {
      ExpectEmptyBucket(serial.buckets()[i], i);
      ExpectEmptyBucket(teamed.buckets()[i], i);
    }
  }
}

TEST(TeamInitTest, AggregateTableMatchesSerialInit) {
  ThreadPool team(kTeamSize);
  for (const uint64_t groups : {kTinyTuples, kSmallTuples, kLargeTuples}) {
    const AggregateTable serial(groups, AggregateTable::Options{});
    const AggregateTable teamed(groups, AggregateTable::Options{}, &team);
    ASSERT_EQ(teamed.num_buckets(), serial.num_buckets());
    EXPECT_EQ(teamed.num_buckets() < kTeamSize, groups == kTinyTuples);
    for (uint64_t i = 0; i < teamed.num_buckets(); ++i) {
      ExpectEmptyGroup(serial.buckets()[i], i);
      ExpectEmptyGroup(teamed.buckets()[i], i);
    }
  }
}

TEST(TeamInitTest, TeamBuiltTableBuildsLikeSerialOne) {
  ThreadPool team(kTeamSize);
  const Relation rel = MakeZipfRelation(kLargeTuples, kLargeTuples, 1.0, 5);
  ChainedHashTable serial(rel.size(), ChainedHashTable::Options{});
  ChainedHashTable teamed(rel.size(), ChainedHashTable::Options{}, &team);
  BuildTableUnsync(rel, &serial);
  BuildTableUnsync(rel, &teamed);
  EXPECT_EQ(teamed.overflow_nodes_used(), serial.overflow_nodes_used());
  std::vector<Tuple> a, b;
  for (uint64_t i = 0; i < serial.num_buckets(); ++i) {
    a.clear();
    b.clear();
    serial.CollectChain(i, &a);
    teamed.CollectChain(i, &b);
    ASSERT_EQ(a, b) << "bucket " << i;
  }
}

TEST(LazyPoolTest, OverflowNodesComeBackInitialisedAfterClear) {
  ChainedHashTable table(64, ChainedHashTable::Options{});
  std::vector<BucketNode*> first;
  for (int round = 0; round < 2; ++round) {
    for (int n = 0; n < 8; ++n) {
      BucketNode* node = table.AllocOverflowNode();
      ExpectEmptyBucket(*node, static_cast<uint64_t>(n));
      if (round == 0) {
        first.push_back(node);
      } else {
        EXPECT_EQ(node, first[static_cast<size_t>(n)]);  // same memory reused
      }
      // Dirty every field, as a build would, before Clear() reuses it.
      node->count = 2;
      node->tuples[0] = Tuple{1, 2};
      node->tuples[1] = Tuple{3, 4};
      node->next = node;
      node->latch.Acquire();
    }
    table.Clear();
    EXPECT_EQ(table.overflow_nodes_used(), 0u);
  }
}

TEST(LazyPoolTest, GroupNodesComeBackInitialisedAfterClear) {
  AggregateTable table(64, AggregateTable::Options{});
  std::vector<GroupNode*> first;
  for (int round = 0; round < 2; ++round) {
    for (int n = 0; n < 8; ++n) {
      GroupNode* node = table.AllocNode();
      ExpectEmptyGroup(*node, static_cast<uint64_t>(n));
      if (round == 0) {
        first.push_back(node);
      } else {
        EXPECT_EQ(node, first[static_cast<size_t>(n)]);
      }
      node->used = 1;
      node->key = 7;
      node->count = node->sum = node->min = node->max = 9;
      node->sumsq = 81;
      node->next = node;
      node->latch.Acquire();
    }
    table.Clear();
    for (uint64_t i = 0; i < table.num_buckets(); ++i) {
      ExpectEmptyGroup(table.buckets()[i], i);
    }
  }
}

TEST(GroupPoolDeathTest, ExhaustionAborts) {
  EXPECT_DEATH(
      {
        AggregateTable table(4, AggregateTable::Options{});
        for (int n = 0; n < 100; ++n) table.AllocNode();
      },
      "group node pool exhausted");
}

}  // namespace
}  // namespace amac
