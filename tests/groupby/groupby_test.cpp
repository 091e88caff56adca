// Group-by correctness: every engine must produce exactly the aggregates a
// std::map reference computes, across distributions, window sizes, and
// thread counts.
#include "groupby/groupby.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>

#include "baseline_loops.h"
#include "core/scheduler.h"
#include "groupby/groupby_ops.h"

namespace amac {
namespace {

struct RefAgg {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  uint64_t sumsq = 0;
};

std::map<int64_t, RefAgg> Reference(const Relation& input) {
  std::map<int64_t, RefAgg> ref;
  for (const Tuple& t : input) {
    RefAgg& agg = ref[t.key];
    if (agg.count == 0) {
      agg.min = agg.max = t.payload;
    } else {
      agg.min = std::min(agg.min, t.payload);
      agg.max = std::max(agg.max, t.payload);
    }
    ++agg.count;
    agg.sum += t.payload;
    agg.sumsq += static_cast<uint64_t>(t.payload) *
                 static_cast<uint64_t>(t.payload);
  }
  return ref;
}

void ExpectMatchesReference(const AggregateTable& table,
                            const std::map<int64_t, RefAgg>& ref) {
  uint64_t seen = 0;
  table.ForEachGroup([&](const GroupNode& g) {
    ++seen;
    auto it = ref.find(g.key);
    ASSERT_NE(it, ref.end()) << "unexpected group " << g.key;
    EXPECT_EQ(g.count, it->second.count) << "key " << g.key;
    EXPECT_EQ(g.sum, it->second.sum) << "key " << g.key;
    EXPECT_EQ(g.min, it->second.min) << "key " << g.key;
    EXPECT_EQ(g.max, it->second.max) << "key " << g.key;
    EXPECT_EQ(g.sumsq, it->second.sumsq) << "key " << g.key;
    EXPECT_DOUBLE_EQ(g.Avg(), static_cast<double>(it->second.sum) /
                                  static_cast<double>(it->second.count));
  });
  EXPECT_EQ(seen, ref.size());
}

class GroupByEngineTest
    : public ::testing::TestWithParam<std::tuple<ExecPolicy, double, uint32_t>> {
};

TEST_P(GroupByEngineTest, MatchesReferenceAggregates) {
  const auto [policy, theta, threads] = GetParam();
  const uint64_t groups = 2000;
  const Relation input =
      theta == 0.0 ? MakeGroupByInput(groups, 3, 71)
                   : MakeZipfRelation(groups * 3, groups, theta, 72);
  AggregateTable table(groups * 2, AggregateTable::Options{});
  Executor exec(ExecConfig{policy, SchedulerParams{8, 1, 0}, threads, 0});
  const RunStats run = RunGroupBy(exec, input, &table);
  const auto ref = Reference(input);
  EXPECT_EQ(run.outputs, ref.size());
  ExpectMatchesReference(table, ref);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByDistributionAndThreads, GroupByEngineTest,
    ::testing::Combine(::testing::Values(ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                                         ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac),
                       ::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      return std::string(ExecPolicyName(std::get<0>(info.param))) + "_z" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
             "_t" + std::to_string(std::get<2>(info.param));
    });

TEST(GroupByTest, EnginesAgreeOnChecksum) {
  const Relation input = MakeZipfRelation(6000, 2000, 1.0, 73);
  AggregateTable base_table(4000, AggregateTable::Options{});
  GroupByBaseline(input, 0, input.size(), base_table);
  for (ExecPolicy policy : kAllExecPolicies) {
    Executor exec(ExecConfig{policy, SchedulerParams{10, 1, 0}, 1, 0});
    AggregateTable table(4000, AggregateTable::Options{});
    const RunStats run = RunGroupBy(exec, input, &table);
    EXPECT_EQ(run.outputs, base_table.CountGroups()) << ExecPolicyName(policy);
    EXPECT_EQ(run.checksum, base_table.Checksum()) << ExecPolicyName(policy);
  }
}

TEST(GroupByTest, SingleHotKeyFullContention) {
  // Every tuple updates the same group: worst-case latch behavior.
  Relation input(5000);
  for (uint64_t i = 0; i < input.size(); ++i) {
    input[i] = Tuple{7, static_cast<int64_t>(i + 1)};
  }
  for (ExecPolicy policy : {ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac}) {
    AggregateTable table(16, AggregateTable::Options{});
    Executor exec(ExecConfig{policy, SchedulerParams{10, 1, 0}, 4, 0});
    const RunStats run = RunGroupBy(exec, input, &table);
    EXPECT_EQ(run.outputs, 1u) << ExecPolicyName(policy);
    table.ForEachGroup([&](const GroupNode& g) {
      EXPECT_EQ(g.count, 5000);
      EXPECT_EQ(g.min, 1);
      EXPECT_EQ(g.max, 5000);
      EXPECT_EQ(g.sum, 5000ll * 5001 / 2);
    });
  }
}

TEST(GroupByTest, AmacTinyWindow) {
  const Relation input = MakeGroupByInput(300, 3, 74);
  AggregateTable table(600, AggregateTable::Options{});
  GroupByOp<false> op(table, input);
  amac::Run(ExecPolicy::kAmac, SchedulerParams{1, 1}, op, input.size());
  EXPECT_EQ(table.CountGroups(), 300u);
  AggregateTable baseline(600, AggregateTable::Options{});
  GroupByBaseline(input, 0, input.size(), baseline);
  EXPECT_EQ(table.Checksum(), baseline.Checksum());
}

TEST(GroupByTest, EmptyInput) {
  Relation input(0);
  AggregateTable table(16, AggregateTable::Options{});
  Executor exec(
      ExecConfig{ExecPolicy::kAmac, SchedulerParams{10, 1, 0}, 1, 0});
  const RunStats run = RunGroupBy(exec, input, &table);
  EXPECT_EQ(run.outputs, 0u);
  EXPECT_EQ(run.inputs, 0u);
}

TEST(GroupNodeTest, AccumulateTracksAllSixAggregates) {
  GroupNode node;
  node.used = 1;
  node.Accumulate(4);
  node.Accumulate(-2);
  node.Accumulate(10);
  EXPECT_EQ(node.count, 3);
  EXPECT_EQ(node.sum, 12);
  EXPECT_EQ(node.min, -2);
  EXPECT_EQ(node.max, 10);
  EXPECT_EQ(node.sumsq, 16u + 4u + 100u);
  EXPECT_DOUBLE_EQ(node.Avg(), 4.0);
}

TEST(GroupNodeTest, FitsOneCacheLine) {
  EXPECT_EQ(sizeof(GroupNode), kCacheLineSize);
}

}  // namespace
}  // namespace amac
