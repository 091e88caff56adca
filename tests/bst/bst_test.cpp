// BST structure and search-kernel tests.
#include "bst/bst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "bst/bst_search.h"
#include "core/ops.h"
#include "core/scheduler.h"
#include "join/hash_join.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

TEST(BstNodeTest, OccupiesOneCacheLine) {
  EXPECT_EQ(sizeof(BstNode), kCacheLineSize);
}

TEST(BstTest, InsertAndFind) {
  BinarySearchTree tree(10);
  EXPECT_TRUE(tree.Insert(5, 50));
  EXPECT_TRUE(tree.Insert(3, 30));
  EXPECT_TRUE(tree.Insert(8, 80));
  ASSERT_NE(tree.Find(5), nullptr);
  EXPECT_EQ(tree.Find(5)->payload, 50);
  EXPECT_EQ(tree.Find(3)->payload, 30);
  EXPECT_EQ(tree.Find(8)->payload, 80);
  EXPECT_EQ(tree.Find(4), nullptr);
  EXPECT_EQ(tree.size(), 3u);
}

TEST(BstTest, DuplicateKeysRejected) {
  BinarySearchTree tree(10);
  EXPECT_TRUE(tree.Insert(1, 10));
  EXPECT_FALSE(tree.Insert(1, 20));
  EXPECT_EQ(tree.Find(1)->payload, 10);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BstTest, MatchesStdMapOnRandomInput) {
  const Relation rel = MakeDenseUniqueRelation(3000, 81);
  const BinarySearchTree tree = BuildBst(rel);
  std::map<int64_t, int64_t> ref;
  for (const Tuple& t : rel) ref[t.key] = t.payload;
  for (const auto& [key, payload] : ref) {
    ASSERT_NE(tree.Find(key), nullptr);
    EXPECT_EQ(tree.Find(key)->payload, payload);
  }
  EXPECT_EQ(tree.Find(0), nullptr);
  EXPECT_EQ(tree.Find(3001), nullptr);
}

TEST(BstTest, StatsReflectRandomTreeShape) {
  const Relation rel = MakeDenseUniqueRelation(1 << 12, 82);
  const BinarySearchTree tree = BuildBst(rel);
  const BstStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.num_nodes, rel.size());
  // Random BST: height ~ 2.99 log2(n) in expectation, avg depth ~1.39 log2 n.
  EXPECT_GE(stats.height, 12u);
  EXPECT_LE(stats.height, 50u);
  EXPECT_GT(stats.avg_depth, 10.0);
  EXPECT_LT(stats.avg_depth, 30.0);
}

TEST(BstTest, DegenerateSortedInsertBecomesList) {
  BinarySearchTree tree(100);
  for (int64_t k = 1; k <= 100; ++k) tree.Insert(k, k);
  const BstStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.height, 100u);
}

class BstSearchEngineTest
    : public ::testing::TestWithParam<std::tuple<ExecPolicy, uint32_t>> {};

TEST_P(BstSearchEngineTest, FindsEveryKeyAndMatchesBaseline) {
  const auto [policy, m] = GetParam();
  const uint64_t n = 4000;
  const Relation rel = MakeDenseUniqueRelation(n, 83);
  const BinarySearchTree tree = BuildBst(rel);
  // Probe relation = permutation of tree keys plus some misses.
  Relation probe = MakeZipfRelation(n, n + 500, 0.0, 84);

  CountChecksumSink baseline;
  BstSearchBaseline(tree, probe, 0, probe.size(), baseline);

  CountChecksumSink sink;
  BstSearchOp<CountChecksumSink> op(tree, probe, sink);
  amac::Run(policy, SchedulerParams{m, /*stages=*/8}, op, probe.size());
  EXPECT_EQ(sink.matches(), baseline.matches());
  EXPECT_EQ(sink.checksum(), baseline.checksum());
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByWindow, BstSearchEngineTest,
    ::testing::Combine(::testing::Values(ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                                         ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac),
                       ::testing::Values(1u, 5u, 10u, 16u)),
    [](const auto& info) {
      return std::string(ExecPolicyName(std::get<0>(info.param))) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BstSearchTest, EmptyTree) {
  BinarySearchTree tree(1);
  Relation probe(10);
  for (uint64_t i = 0; i < 10; ++i) probe[i] = Tuple{static_cast<int64_t>(i), 0};
  CountChecksumSink sink;
  BstSearchBaseline(tree, probe, 0, probe.size(), sink);
  for (ExecPolicy policy : kAllExecPolicies) {
    BstSearchOp<CountChecksumSink> op(tree, probe, sink);
    amac::Run(policy, SchedulerParams{4, 2}, op, probe.size());
  }
  EXPECT_EQ(sink.matches(), 0u);
}

TEST(BstSearchTest, ShortStagesForceBailouts) {
  // Provision only 1 staged level on a deep tree: GP/SPP must bail out on
  // nearly every lookup yet stay correct.
  const uint64_t n = 2000;
  const Relation rel = MakeDenseUniqueRelation(n, 85);
  const BinarySearchTree tree = BuildBst(rel);
  const Relation probe = MakeForeignKeyRelation(n, n, 86);
  CountChecksumSink base, gp, spp;
  BstSearchBaseline(tree, probe, 0, n, base);
  BstSearchOp<CountChecksumSink> gp_op(tree, probe, gp);
  const EngineStats gp_stats =
      amac::Run(ExecPolicy::kGroupPrefetch, SchedulerParams{8, 1}, gp_op, n);
  BstSearchOp<CountChecksumSink> spp_op(tree, probe, spp);
  amac::Run(ExecPolicy::kSoftwarePipelined, SchedulerParams{8, 1}, spp_op, n);
  // One staged level: every step past a lookup's first runs in the bailout.
  EXPECT_GT(gp_stats.steps, 2 * n);
  EXPECT_EQ(gp.checksum(), base.checksum());
  EXPECT_EQ(spp.checksum(), base.checksum());
  EXPECT_EQ(base.matches(), n);
}

TEST(BstSearchTest, SubrangeHonored) {
  const uint64_t n = 1000;
  const Relation rel = MakeDenseUniqueRelation(n, 87);
  const BinarySearchTree tree = BuildBst(rel);
  const Relation probe = MakeForeignKeyRelation(n, n, 88);
  CountChecksumSink sink;
  BstSearchOp<CountChecksumSink> op(tree, probe, sink);
  OffsetOp<decltype(op)> rebased(op, 250);
  amac::Run(ExecPolicy::kAmac, SchedulerParams{7, 1}, rebased, 500);
  EXPECT_EQ(sink.matches(), 500u);
}

TEST(BstDeathTest, PoolExhaustionAborts) {
  EXPECT_DEATH(
      {
        BinarySearchTree tree(2);
        tree.Insert(1, 1);
        tree.Insert(2, 2);
        tree.Insert(3, 3);
      },
      "BST pool exhausted");
}

}  // namespace
}  // namespace amac
