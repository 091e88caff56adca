// Unified-runtime tests: every ExecPolicy dispatched through the single
// amac::Run(policy, params, op, n) entry point must produce results
// identical to the layer's no-prefetch Baseline loop — for every ported
// layer (hash probe, hash build, BST, B+-tree, skip list, group-by, graph
// walks).
#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline_loops.h"
#include "bst/bst.h"
#include "bst/bst_search.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common/rng.h"
#include "core/ops.h"
#include "join/join_ops.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace amac {
namespace {

constexpr SchedulerParams kParams{8, 3};

TEST(SchedulerTest, PolicyNamesAreDistinct) {
  std::vector<std::string> names;
  for (ExecPolicy policy : kAllExecPolicies) {
    names.emplace_back(ExecPolicyName(policy));
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"Sequential", "GP", "SPP", "AMAC",
                                      "Coroutine", "Vectorized", "VecAMAC"}));
}

TEST(SchedulerTest, SppDistanceDerivation) {
  EXPECT_EQ((SchedulerParams{10, 2}).SppDistance(), 5u);
  EXPECT_EQ((SchedulerParams{1, 4}).SppDistance(), 1u);   // floors at 1
  EXPECT_EQ((SchedulerParams{10, 0}).SppDistance(), 10u);  // stages guarded
  EXPECT_EQ((SchedulerParams{10, 2, 7}).SppDistance(), 7u);  // override wins
}

/// Virtual-step op used for schedule-shape checks (mirrors engine_test).
class CountdownOp {
 public:
  struct State {
    uint64_t idx;
    uint32_t remaining;
  };

  explicit CountdownOp(std::vector<uint32_t> lengths)
      : lengths_(std::move(lengths)) {}

  void Start(State& st, uint64_t idx) {
    st.idx = idx;
    st.remaining = lengths_[idx];
  }

  StepStatus Step(State& st) {
    if (--st.remaining == 0) {
      ++completions;
      return StepStatus::kDone;
    }
    return StepStatus::kParked;
  }

  uint64_t completions = 0;

 private:
  std::vector<uint32_t> lengths_;
};

TEST(SchedulerTest, EveryPolicyCompletesEveryLookupWithExactSteps) {
  std::vector<uint32_t> lengths;
  uint64_t total_steps = 0;
  for (uint32_t i = 0; i < 300; ++i) {
    lengths.push_back(i % 5 + 1);
    total_steps += i % 5 + 1;
  }
  for (ExecPolicy policy : kAllExecPolicies) {
    CountdownOp op(lengths);
    const EngineStats stats = amac::Run(policy, kParams, op, lengths.size());
    EXPECT_EQ(op.completions, lengths.size()) << ExecPolicyName(policy);
    EXPECT_EQ(stats.lookups, lengths.size()) << ExecPolicyName(policy);
    EXPECT_EQ(stats.steps, total_steps) << ExecPolicyName(policy);
    // No retries anywhere, so parks must account for every non-final step.
    EXPECT_EQ(stats.parks, total_steps - lengths.size())
        << ExecPolicyName(policy);
    EXPECT_EQ(stats.retries, 0u) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, HashProbeAllPoliciesMatchBaseline) {
  const uint64_t n = 3000;
  const Relation build = MakeZipfRelation(n, n / 2, 0.8, 211);
  const Relation probe = MakeZipfRelation(n, n / 2, 0.4, 212);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);

  CountChecksumSink base;
  ProbeBaseline<false>(table, probe, 0, probe.size(), base);

  for (ExecPolicy policy : kAllExecPolicies) {
    CountChecksumSink sink;
    ProbeOp<false, CountChecksumSink> op(table, probe, sink);
    const EngineStats stats = amac::Run(policy, kParams, op, probe.size());
    EXPECT_EQ(sink.matches(), base.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(sink.checksum(), base.checksum()) << ExecPolicyName(policy);
    EXPECT_EQ(stats.lookups, probe.size()) << ExecPolicyName(policy);
    EXPECT_GE(stats.steps, probe.size()) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, HashBuildAllPoliciesBuildIdenticalTables) {
  const Relation rel = MakeZipfRelation(4000, 1200, 0.6, 213);
  ChainedHashTable base(rel.size(), ChainedHashTable::Options{});
  BuildBaseline(rel, 0, rel.size(), base);
  for (ExecPolicy policy : kAllExecPolicies) {
    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    HashBuildOp<false> op(table, rel);
    amac::Run(policy, kParams, op, rel.size());
    EXPECT_EQ(table.ComputeStats().total_tuples, rel.size())
        << ExecPolicyName(policy);
    // Same payload multiset per key as the Baseline build.
    for (int64_t key = 1; key <= 1200; ++key) {
      std::vector<int64_t> got, want;
      table.FindAll(key, &got);
      base.FindAll(key, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << ExecPolicyName(policy) << " key=" << key;
    }
  }
}

TEST(SchedulerTest, BstSearchAllPoliciesMatchBaseline) {
  const uint64_t n = 2000;
  const Relation rel = MakeDenseUniqueRelation(n, 214);
  const BinarySearchTree tree = BuildBst(rel);
  const Relation probe = MakeForeignKeyRelation(n, n, 215);

  CountChecksumSink base;
  BstSearchBaseline(tree, probe, 0, probe.size(), base);

  for (ExecPolicy policy : kAllExecPolicies) {
    CountChecksumSink sink;
    BstSearchOp<CountChecksumSink> op(tree, probe, sink);
    amac::Run(policy, kParams, op, probe.size());
    EXPECT_EQ(sink.matches(), base.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(sink.checksum(), base.checksum()) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, BTreeSearchAllPoliciesMatchBaseline) {
  const uint64_t n = 4000;
  const Relation rel = MakeDenseUniqueRelation(n, 216);
  const BTree tree(rel);
  const Relation probe = MakeForeignKeyRelation(n, n, 217);

  CountChecksumSink base;
  BTreeSearchBaseline(tree, probe, 0, probe.size(), base);

  // Regular height-deep traversals: provision exactly height() stages.
  const SchedulerParams params{8, tree.height()};
  for (ExecPolicy policy : kAllExecPolicies) {
    CountChecksumSink sink;
    BTreeSearchOp<CountChecksumSink> op(tree, probe, sink);
    amac::Run(policy, params, op, probe.size());
    EXPECT_EQ(sink.matches(), base.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(sink.checksum(), base.checksum()) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, SkipSearchAllPoliciesMatchBaseline) {
  const uint64_t n = 3000;
  const Relation rel = MakeDenseUniqueRelation(n, 218);
  SkipList list(n);
  Rng rng(219);
  for (const Tuple& t : rel) list.InsertUnsync(t.key, t.payload, rng);
  const Relation probe = MakeForeignKeyRelation(n, n, 220);

  CountChecksumSink base;
  SkipSearchBaseline(list, probe, 0, probe.size(), base);

  for (ExecPolicy policy : kAllExecPolicies) {
    CountChecksumSink sink;
    SkipSearchOp<CountChecksumSink> op(list, probe, sink);
    amac::Run(policy, kParams, op, probe.size());
    EXPECT_EQ(sink.matches(), base.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(sink.checksum(), base.checksum()) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, GroupByAllPoliciesMatchBaseline) {
  const Relation input = MakeZipfRelation(5000, 600, 0.9, 221);

  AggregateTable base_table(1200, AggregateTable::Options{});
  GroupByBaseline(input, 0, input.size(), base_table);
  const uint64_t base_groups = base_table.CountGroups();
  const uint64_t base_checksum = base_table.Checksum();

  for (ExecPolicy policy : kAllExecPolicies) {
    AggregateTable table(1200, AggregateTable::Options{});
    GroupByOp<false> op(table, input);
    amac::Run(policy, kParams, op, input.size());
    EXPECT_EQ(table.CountGroups(), base_groups) << ExecPolicyName(policy);
    EXPECT_EQ(table.Checksum(), base_checksum) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, GroupBySingleHotBucketNoDeadlock) {
  // Every tuple lands in one bucket; the latch is held across parks during
  // the chain walk.  Every policy must drain without deadlock.
  Relation rel(300);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i % 3), static_cast<int64_t>(i)};
  }
  for (ExecPolicy policy : kAllExecPolicies) {
    AggregateTable table(2, AggregateTable::Options{});
    GroupByOp<false> op(table, rel);
    amac::Run(policy, kParams, op, rel.size());
    EXPECT_EQ(table.CountGroups(), 3u) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, RandomWalksIdenticalTrajectoriesAcrossPolicies) {
  CsrGraph::Options opt;
  opt.num_vertices = 1 << 12;
  opt.out_degree = 4;
  opt.target_theta = 0.9;
  const CsrGraph graph(opt);
  const uint64_t walkers = 2000;

  WalkSink base;
  {
    RandomWalkOp op(graph, /*hops=*/6, /*seed=*/7, base);
    amac::Run(ExecPolicy::kSequential, kParams, op, walkers);
  }
  EXPECT_GT(base.visits(), walkers);

  for (ExecPolicy policy : kAllExecPolicies) {
    WalkSink sink;
    RandomWalkOp op(graph, 6, 7, sink);
    amac::Run(policy, kParams, op, walkers);
    EXPECT_EQ(sink.visits(), base.visits()) << ExecPolicyName(policy);
    EXPECT_EQ(sink.checksum(), base.checksum()) << ExecPolicyName(policy);
  }
}

TEST(SchedulerTest, CoroutinePolicyCountsStats) {
  std::vector<uint32_t> lengths{4, 2, 1, 3};
  CountdownOp op(lengths);
  const EngineStats stats =
      amac::Run(ExecPolicy::kCoroutine, SchedulerParams{2, 1}, op, lengths.size());
  EXPECT_EQ(stats.lookups, 4u);
  EXPECT_EQ(stats.steps, 4u + 2 + 1 + 3);
  EXPECT_EQ(stats.parks, stats.steps - stats.lookups);
}

TEST(SchedulerTest, ZeroInputsIsANoopForEveryPolicy) {
  for (ExecPolicy policy : kAllExecPolicies) {
    CountdownOp op({});
    const EngineStats stats = amac::Run(policy, kParams, op, 0);
    EXPECT_EQ(stats.lookups, 0u) << ExecPolicyName(policy);
    EXPECT_EQ(stats.steps, 0u) << ExecPolicyName(policy);
  }
}

}  // namespace
}  // namespace amac
