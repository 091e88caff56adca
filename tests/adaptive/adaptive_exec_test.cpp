// ExecPolicy::kAdaptive end to end: governed runs through Executor::Run
// and QueryScheduler::Submit must reproduce the static-policy oracles
// bit-for-bit on every op kind x thread count (results are schedule-
// independent, so "the governor may pick anything" is safe), surface
// AdaptiveStats, and hit the calibration cache on repeated query shapes.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bst/bst.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common/rng.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby_ops.h"
#include "hashtable/chained_table.h"
#include "join/join_ops.h"
#include "relation/relation.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace amac {
namespace {

constexpr uint64_t kScale = 20000;

/// Shared read-only structures for every governed-vs-oracle comparison.
struct Fixture {
  Relation r, s, gb_input, idx_probe;
  std::unique_ptr<ChainedHashTable> table;
  std::unique_ptr<BTree> btree;
  std::unique_ptr<BinarySearchTree> bst;
  std::unique_ptr<SkipList> slist;
  std::unique_ptr<CsrGraph> graph;

  Fixture() {
    r = MakeDenseUniqueRelation(kScale, 1201);
    s = MakeForeignKeyRelation(kScale, kScale, 1202);
    gb_input = MakeZipfRelation(kScale, kScale / 8 + 1, 0.6, 1203);
    idx_probe = MakeZipfRelation(kScale, 2 * kScale, 0.3, 1204);
    table = std::make_unique<ChainedHashTable>(kScale,
                                               ChainedHashTable::Options{});
    BuildTableUnsync(r, table.get());
    btree = std::make_unique<BTree>(r);
    bst = std::make_unique<BinarySearchTree>(BuildBst(r));
    slist = std::make_unique<SkipList>(kScale);
    Rng rng(1205);
    for (const Tuple& t : r) slist->InsertUnsync(t.key, t.payload, rng);
    CsrGraph::Options graph_options;
    graph_options.num_vertices = kScale / 4;
    graph_options.out_degree = 8;
    graph_options.seed = 1206;
    graph = std::make_unique<CsrGraph>(graph_options);
  }
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

/// Run `pipeline` once sequentially (the oracle) and then adaptively at
/// `threads`, comparing outputs + checksum.
template <typename PipelineT>
void ExpectAdaptiveMatchesOracle(const PipelineT& pipeline,
                                 uint32_t threads, const char* label) {
  Executor oracle_exec(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  const RunStats oracle = oracle_exec.Run(pipeline);
  EXPECT_FALSE(oracle.adaptive.active);

  Executor exec(ExecConfig{ExecPolicy::kAdaptive, SchedulerParams{10, 2, 0},
                           threads, 0});
  const RunStats run = exec.Run(pipeline);
  EXPECT_EQ(run.inputs, oracle.inputs) << label << " threads=" << threads;
  EXPECT_EQ(run.outputs, oracle.outputs) << label << " threads=" << threads;
  EXPECT_EQ(run.checksum, oracle.checksum)
      << label << " threads=" << threads;
  EXPECT_TRUE(run.adaptive.active) << label;
  EXPECT_NE(run.adaptive.chosen_policy, ExecPolicy::kAdaptive) << label;
  EXPECT_GT(run.morsels, 0u) << label;
}

class AdaptiveExecTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AdaptiveExecTest, JoinProbeMatchesOracle) {
  const Fixture& f = SharedFixture();
  ExpectAdaptiveMatchesOracle(Scan(f.s).Then(Probe<true>(*f.table)),
                              GetParam(), "join-probe");
}

TEST_P(AdaptiveExecTest, BTreeLookupMatchesOracle) {
  const Fixture& f = SharedFixture();
  ExpectAdaptiveMatchesOracle(Scan(f.idx_probe).Then(LookupBTree(*f.btree)),
                              GetParam(), "btree");
}

TEST_P(AdaptiveExecTest, BstLookupMatchesOracle) {
  const Fixture& f = SharedFixture();
  ExpectAdaptiveMatchesOracle(Scan(f.idx_probe).Then(LookupBst(*f.bst)),
                              GetParam(), "bst");
}

TEST_P(AdaptiveExecTest, SkipListLookupMatchesOracle) {
  const Fixture& f = SharedFixture();
  ExpectAdaptiveMatchesOracle(Scan(f.idx_probe).Then(LookupSkipList(*f.slist)),
                              GetParam(), "skiplist");
}

TEST_P(AdaptiveExecTest, WalksMatchOracle) {
  const Fixture& f = SharedFixture();
  ExpectAdaptiveMatchesOracle(Walks(*f.graph, kScale / 4, 8, 1207),
                              GetParam(), "walks");
}

TEST_P(AdaptiveExecTest, GroupByMatchesOracle) {
  const Fixture& f = SharedFixture();
  // Aggregating terminal: the result lives in the table, so compare the
  // table-derived group count + checksum instead of the sink.
  AggregateTable oracle_agg(kScale + 1, AggregateTable::Options{});
  Executor oracle_exec(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  oracle_exec.Run(Scan(f.gb_input).Then(Aggregate(oracle_agg)));

  AggregateTable agg(kScale + 1, AggregateTable::Options{});
  Executor exec(ExecConfig{ExecPolicy::kAdaptive, SchedulerParams{10, 2, 0},
                           GetParam(), 0});
  const RunStats run = exec.Run(Scan(f.gb_input).Then(Aggregate(agg)));
  EXPECT_TRUE(run.adaptive.active);
  EXPECT_EQ(agg.CountGroups(), oracle_agg.CountGroups());
  EXPECT_EQ(agg.Checksum(), oracle_agg.Checksum());
}

TEST_P(AdaptiveExecTest, FusedJoinGroupByMatchesOracle) {
  const Fixture& f = SharedFixture();
  AggregateTable oracle_agg(kScale + 1, AggregateTable::Options{});
  Executor oracle_exec(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  oracle_exec.Run(
      Scan(f.s).Then(Probe<true>(*f.table)).Then(Aggregate(oracle_agg)));

  AggregateTable agg(kScale + 1, AggregateTable::Options{});
  Executor exec(ExecConfig{ExecPolicy::kAdaptive, SchedulerParams{10, 2, 0},
                           GetParam(), 0});
  exec.Run(Scan(f.s).Then(Probe<true>(*f.table)).Then(Aggregate(agg)));
  EXPECT_EQ(agg.CountGroups(), oracle_agg.CountGroups());
  EXPECT_EQ(agg.Checksum(), oracle_agg.Checksum());
}

INSTANTIATE_TEST_SUITE_P(Threads, AdaptiveExecTest,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           std::string name = "t";
                           return name.append(std::to_string(info.param));
                         });

TEST(AdaptiveCacheTest, RepeatedShapeHitsTheCalibrationCache) {
  const Fixture& f = SharedFixture();
  ExecConfig config{ExecPolicy::kAdaptive, SchedulerParams{10, 1, 0}, 2, 0};
  // Pin the run-2 expectations exactly: no exploration probes and no
  // drift re-tunes, so a cache hit means literally zero re-measurement
  // (on loaded machines timing noise can otherwise trigger a legitimate
  // mid-query re-tune, which is adaptive behavior, not a cache miss).
  config.adaptive.epsilon = 0;
  config.adaptive.drift_ratio = 0;
  Executor exec(config);
  const auto pipeline = Scan(f.s).Then(Probe<true>(*f.table));
  const RunStats first = exec.Run(pipeline);
  EXPECT_FALSE(first.adaptive.cache_hit);
  EXPECT_GT(first.adaptive.calibration_morsels, 0u);
  EXPECT_EQ(exec.calibrator().entries(), 1u);

  const RunStats second = exec.Run(pipeline);
  EXPECT_TRUE(second.adaptive.cache_hit);
  EXPECT_EQ(second.adaptive.calibration_morsels, 0u);
  EXPECT_GE(exec.calibrator().hits(), 1u);
  EXPECT_EQ(second.outputs, first.outputs);
  EXPECT_EQ(second.checksum, first.checksum);

  // A different query shape misses: its own calibration, its own entry.
  const RunStats other =
      exec.Run(Scan(f.idx_probe).Then(LookupBTree(*f.btree)));
  EXPECT_FALSE(other.adaptive.cache_hit);
  EXPECT_EQ(exec.calibrator().entries(), 2u);
}

TEST(AdaptiveServingTest, ConcurrentGovernedQueriesMatchOraclesAndCount) {
  const Fixture& f = SharedFixture();
  // Oracles, solo and sequential.
  Executor oracle_exec(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  const RunStats probe_oracle =
      oracle_exec.Run(Scan(f.s).Then(Probe<true>(*f.table)));
  const RunStats btree_oracle =
      oracle_exec.Run(Scan(f.idx_probe).Then(LookupBTree(*f.btree)));
  const RunStats walks_oracle =
      oracle_exec.Run(Walks(*f.graph, kScale, 8, 1207));

  QueryScheduler sched(QuerySchedulerOptions{4, 4, AdmissionOrder::kFifo});
  QueryOptions options;
  options.policy = ExecPolicy::kAdaptive;
  std::vector<QueryStats> results;
  constexpr int kRounds = 3;
  size_t num_queries = 0;
  // Each round's three shapes run concurrently on the shared pool; rounds
  // are submitted back to back, so round N+1 finds round N's calibrations
  // in the cache (the Submit-time lookup would otherwise race the first
  // round's in-flight calibration).
  for (int round = 0; round < kRounds; ++round) {
    std::vector<QueryTicket> tickets;
    tickets.push_back(
        Submit(sched, Scan(f.s).Then(Probe<true>(*f.table)), options));
    tickets.push_back(Submit(
        sched, Scan(f.idx_probe).Then(LookupBTree(*f.btree)), options));
    tickets.push_back(
        Submit(sched, Walks(*f.graph, kScale, 8, 1207), options));
    num_queries += tickets.size();
    for (const QueryTicket& t : tickets) results.push_back(sched.Wait(t));
  }
  for (int round = 0; round < kRounds; ++round) {
    const QueryStats& probe = results[static_cast<size_t>(3 * round)];
    const QueryStats& btree = results[static_cast<size_t>(3 * round + 1)];
    const QueryStats& walks = results[static_cast<size_t>(3 * round + 2)];
    EXPECT_EQ(probe.run.outputs, probe_oracle.outputs) << round;
    EXPECT_EQ(probe.run.checksum, probe_oracle.checksum) << round;
    EXPECT_EQ(btree.run.outputs, btree_oracle.outputs) << round;
    EXPECT_EQ(btree.run.checksum, btree_oracle.checksum) << round;
    EXPECT_EQ(walks.run.outputs, walks_oracle.outputs) << round;
    EXPECT_EQ(walks.run.checksum, walks_oracle.checksum) << round;
    EXPECT_TRUE(probe.run.adaptive.active);
  }

  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.completed, num_queries);
  EXPECT_EQ(serving.adaptive_queries, num_queries);
  // Later rounds of each shape ride the calibration cache.
  EXPECT_GE(serving.adaptive_cache_hits, 3u * (kRounds - 1));
  uint64_t chosen_total = 0;
  for (const uint64_t c : serving.adaptive_chosen_counts) chosen_total += c;
  EXPECT_EQ(chosen_total, serving.adaptive_queries);
}

TEST(AdaptiveServingTest, StaticQueriesDoNotCountAsAdaptive) {
  const Fixture& f = SharedFixture();
  QueryScheduler sched(QuerySchedulerOptions{2, 2, AdmissionOrder::kFifo});
  QueryOptions options;
  options.policy = ExecPolicy::kAmac;
  sched.Wait(Submit(sched, Scan(f.s).Then(Probe<true>(*f.table)), options));
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.completed, 1u);
  EXPECT_EQ(serving.adaptive_queries, 0u);
  EXPECT_EQ(serving.adaptive_tuning_switches, 0u);
}

}  // namespace
}  // namespace amac
