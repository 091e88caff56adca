#include "hashtable/chained_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "join/hash_join.h"

namespace amac {
namespace {

ChainedHashTable::Options DefaultOptions() {
  return ChainedHashTable::Options{};
}

TEST(BucketNodeTest, OccupiesExactlyOneCacheLine) {
  EXPECT_EQ(sizeof(BucketNode), kCacheLineSize);
  EXPECT_EQ(alignof(BucketNode), kCacheLineSize);
}

TEST(ChainedHashTableTest, InsertAndFindSingle) {
  ChainedHashTable table(16, DefaultOptions());
  table.InsertUnsync(Tuple{42, 777});
  std::vector<int64_t> payloads;
  table.FindAll(42, &payloads);
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], 777);
}

TEST(ChainedHashTableTest, MissingKeyFindsNothing) {
  ChainedHashTable table(16, DefaultOptions());
  table.InsertUnsync(Tuple{1, 10});
  std::vector<int64_t> payloads;
  table.FindAll(2, &payloads);
  EXPECT_TRUE(payloads.empty());
}

TEST(ChainedHashTableTest, DuplicateKeysAllRetained) {
  ChainedHashTable table(16, DefaultOptions());
  for (int64_t p = 0; p < 5; ++p) table.InsertUnsync(Tuple{7, p});
  std::vector<int64_t> payloads;
  table.FindAll(7, &payloads);
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ChainedHashTableTest, ChainGrowsThroughOverflowPool) {
  ChainedHashTable table(64, DefaultOptions());
  // Force one bucket to hold many tuples.
  for (int64_t p = 0; p < 20; ++p) table.InsertUnsync(Tuple{5, p});
  EXPECT_GT(table.overflow_nodes_used(), 0u);
  std::vector<int64_t> payloads;
  table.FindAll(5, &payloads);
  EXPECT_EQ(payloads.size(), 20u);
}

TEST(ChainedHashTableTest, AllInsertedTuplesRecoverable) {
  const Relation rel = MakeDenseUniqueRelation(5000, 21);
  ChainedHashTable table(rel.size(), DefaultOptions());
  BuildTableUnsync(rel, &table);
  for (const Tuple& t : rel) {
    std::vector<int64_t> payloads;
    table.FindAll(t.key, &payloads);
    ASSERT_EQ(payloads.size(), 1u) << "key " << t.key;
    EXPECT_EQ(payloads[0], t.payload);
  }
}

TEST(ChainedHashTableTest, StatsCountEveryTuple) {
  const Relation rel = MakeDenseUniqueRelation(4096, 22);
  ChainedHashTable table(rel.size(), DefaultOptions());
  BuildTableUnsync(rel, &table);
  const ChainStats stats = table.ComputeStats();
  EXPECT_EQ(stats.total_tuples, 4096u);
  EXPECT_GT(stats.used_buckets, 0u);
  EXPECT_GE(stats.max_chain_nodes, 1u);
  EXPECT_GE(stats.avg_nodes_per_used_bucket, 1.0);
}

TEST(ChainedHashTableTest, BucketSizingFollowsTarget) {
  ChainedHashTable::Options opt;
  opt.target_nodes_per_bucket = 1.0;
  ChainedHashTable one(1 << 12, opt);
  opt.target_nodes_per_bucket = 4.0;
  ChainedHashTable four(1 << 12, opt);
  // 8 tuples/bucket instead of 2 => 4x fewer buckets.
  EXPECT_EQ(one.num_buckets(), four.num_buckets() * 4);
}

TEST(ChainedHashTableTest, FourNodeChainsWithRadixHashAndDenseKeys) {
  // The Fig. 3 motivation setup: dense keys, radix hash, 4 nodes/bucket.
  ChainedHashTable::Options opt;
  opt.target_nodes_per_bucket = 4.0;
  opt.hash_kind = HashKind::kRadix;
  const uint64_t n = 1 << 12;
  ChainedHashTable table(n, opt);
  for (uint64_t k = 0; k < n; ++k) {
    table.InsertUnsync(
        Tuple{static_cast<int64_t>(k), static_cast<int64_t>(k)});
  }
  const ChainStats stats = table.ComputeStats();
  EXPECT_EQ(stats.total_tuples, n);
  // Every used bucket should have exactly 4 nodes (8 dense keys).
  EXPECT_DOUBLE_EQ(stats.avg_nodes_per_used_bucket, 4.0);
  EXPECT_EQ(stats.max_chain_nodes, 4u);
}

TEST(ChainedHashTableTest, SkewedBuildConcentratesTuples) {
  const Relation rel = MakeZipfRelation(1 << 14, 1 << 14, 0.75, 23);
  ChainedHashTable table(rel.size(), DefaultOptions());
  BuildTableUnsync(rel, &table);
  const ChainStats stats = table.ComputeStats();
  // Paper §2.2.2: at Zipf .75, the top 1% of buckets hold a large share
  // (19% in their configuration).
  EXPECT_GT(stats.top1pct_tuple_share, 0.08);
  EXPECT_GT(stats.max_chain_nodes, 4u);
}

TEST(ChainedHashTableTest, ClearEmptiesTable) {
  const Relation rel = MakeDenseUniqueRelation(1000, 24);
  ChainedHashTable table(rel.size(), DefaultOptions());
  BuildTableUnsync(rel, &table);
  table.Clear();
  const ChainStats stats = table.ComputeStats();
  EXPECT_EQ(stats.total_tuples, 0u);
  EXPECT_EQ(table.overflow_nodes_used(), 0u);
  std::vector<int64_t> payloads;
  table.FindAll(rel[0].key, &payloads);
  EXPECT_TRUE(payloads.empty());
}

TEST(ChainedHashTableTest, ParallelBuildMatchesSequential) {
  const Relation rel = MakeZipfRelation(20000, 5000, 0.5, 25);
  ChainedHashTable seq(rel.size(), DefaultOptions());
  BuildTableUnsync(rel, &seq);
  // The latched build every multi-threaded plan build runs.
  ChainedHashTable par(rel.size(), DefaultOptions());
  Executor exec(
      ExecConfig{ExecPolicy::kAmac, SchedulerParams{10, 1, 0}, 4, 0});
  BuildPhase(exec, rel, &par, BuildMode::kChained);
  // Same multiset of (key, payload) per key.
  std::map<int64_t, std::vector<int64_t>> expected;
  for (const Tuple& t : rel) expected[t.key].push_back(t.payload);
  for (auto& [key, payloads] : expected) {
    std::sort(payloads.begin(), payloads.end());
    std::vector<int64_t> got;
    par.FindAll(key, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, payloads) << "key " << key;
  }
  EXPECT_EQ(seq.ComputeStats().total_tuples, par.ComputeStats().total_tuples);
}

TEST(ChainedHashTableTest, RadixAndMurmurBothComplete) {
  for (HashKind kind : {HashKind::kRadix, HashKind::kMurmur}) {
    ChainedHashTable::Options opt;
    opt.hash_kind = kind;
    const Relation rel = MakeDenseUniqueRelation(2048, 26);
    ChainedHashTable table(rel.size(), opt);
    BuildTableUnsync(rel, &table);
    EXPECT_EQ(table.ComputeStats().total_tuples, 2048u);
  }
}

TEST(ChainedHashTableDeathTest, OverflowPoolExhaustionAborts) {
  ChainedHashTable::Options opt;
  opt.overflow_capacity = 2;
  EXPECT_DEATH(
      {
        ChainedHashTable table(16, opt);
        for (int64_t p = 0; p < 100; ++p) table.InsertUnsync(Tuple{3, p});
      },
      "overflow pool exhausted");
}

}  // namespace
}  // namespace amac
