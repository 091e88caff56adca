// Randomized cross-engine equivalence: random workload shapes (sizes,
// skews, duplicate densities, miss rates) and random tuning parameters must
// never produce a result divergence between engines.  Seeds are the test
// parameter, so failures are reproducible by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baseline_loops.h"
#include "common/rng.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "groupby/groupby.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

class JoinFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinFuzzTest, RandomWorkloadAllEnginesAgree) {
  Rng rng(GetParam());
  const uint64_t r_size = 64 + rng.NextBounded(4000);
  const uint64_t s_size = 64 + rng.NextBounded(6000);
  const uint64_t key_range = 1 + rng.NextBounded(2 * r_size);
  const double zr = static_cast<double>(rng.NextBounded(120)) / 100.0;
  const double zs = static_cast<double>(rng.NextBounded(120)) / 100.0;
  const bool early_exit = rng.NextBool();

  const Relation r = MakeZipfRelation(r_size, key_range, zr, GetParam() + 1);
  const Relation s = MakeZipfRelation(s_size, key_range, zs, GetParam() + 2);
  ChainedHashTable::Options opt;
  opt.target_nodes_per_bucket = 1.0 + rng.NextBounded(4);
  ChainedHashTable table(r.size(), opt);
  BuildTableUnsync(r, &table);

  CountChecksumSink base;
  if (early_exit) {
    ProbeBaseline<true>(table, s, 0, s.size(), base);
  } else {
    ProbeBaseline<false>(table, s, 0, s.size(), base);
  }

  // Random tuning over the random table shape: the generic op under every
  // static policy, plus the hand Listing-1 probe.
  const uint32_t m = 1 + static_cast<uint32_t>(rng.NextBounded(20));
  const uint32_t stages = 1 + static_cast<uint32_t>(rng.NextBounded(5));
  const SchedulerParams params{m, stages};
  const auto expect_oracle = [&](const CountChecksumSink& sink,
                                 const char* engine) {
    EXPECT_EQ(sink.matches(), base.matches())
        << engine << " m=" << m << " stages=" << stages
        << " early=" << early_exit;
    EXPECT_EQ(sink.checksum(), base.checksum())
        << engine << " m=" << m << " stages=" << stages
        << " early=" << early_exit;
  };
  for (ExecPolicy policy : kAllExecPolicies) {
    CountChecksumSink sink;
    if (early_exit) {
      ProbeOp<true, CountChecksumSink> op(table, s, sink);
      amac::Run(policy, params, op, s.size());
    } else {
      ProbeOp<false, CountChecksumSink> op(table, s, sink);
      amac::Run(policy, params, op, s.size());
    }
    expect_oracle(sink, ExecPolicyName(policy));
  }
  CountChecksumSink hand;
  if (early_exit) {
    ProbeAmac<true>(table, s, 0, s.size(), m, hand);
  } else {
    ProbeAmac<false>(table, s, 0, s.size(), m, hand);
  }
  expect_oracle(hand, "hand AMAC");
}

TEST_P(JoinFuzzTest, RandomGroupByAllEnginesAgree) {
  Rng rng(GetParam() * 31 + 7);
  const uint64_t tuples = 256 + rng.NextBounded(5000);
  const uint64_t groups = 1 + rng.NextBounded(tuples);
  const double theta = static_cast<double>(rng.NextBounded(110)) / 100.0;
  const Relation input =
      MakeZipfRelation(tuples, groups, theta, GetParam() + 5);

  AggregateTable base_table(groups * 2, AggregateTable::Options{});
  GroupByBaseline(input, 0, input.size(), base_table);
  const uint32_t inflight = 1 + static_cast<uint32_t>(rng.NextBounded(16));
  for (ExecPolicy policy : kAllExecPolicies) {
    Executor exec(
        ExecConfig{policy, SchedulerParams{inflight, 1, 0}, 1, 0});
    AggregateTable table(groups * 2, AggregateTable::Options{});
    const RunStats run = RunGroupBy(exec, input, &table);
    EXPECT_EQ(run.outputs, base_table.CountGroups())
        << ExecPolicyName(policy);
    EXPECT_EQ(run.checksum, base_table.Checksum())
        << ExecPolicyName(policy) << " inflight=" << inflight;
  }
}

TEST_P(JoinFuzzTest, RandomWorkloadUnifiedRuntimeAgrees) {
  // The same random workloads, but probed through the unified runtime:
  // every ExecPolicy x in-flight width x thread count must reproduce the
  // baseline join output bitwise (matches and checksum).
  Rng rng(GetParam() * 17 + 3);
  const uint64_t r_size = 64 + rng.NextBounded(4000);
  const uint64_t s_size = 64 + rng.NextBounded(6000);
  const uint64_t key_range = 1 + rng.NextBounded(2 * r_size);
  const double zr = static_cast<double>(rng.NextBounded(120)) / 100.0;
  const double zs = static_cast<double>(rng.NextBounded(120)) / 100.0;
  const bool early_exit = rng.NextBool();

  const Relation r = MakeZipfRelation(r_size, key_range, zr, GetParam() + 3);
  const Relation s = MakeZipfRelation(s_size, key_range, zs, GetParam() + 4);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(r, &table);

  CountChecksumSink base;
  if (early_exit) {
    ProbeBaseline<true>(table, s, 0, s.size(), base);
  } else {
    ProbeBaseline<false>(table, s, 0, s.size(), base);
  }

  const uint32_t stages = 1 + static_cast<uint32_t>(rng.NextBounded(5));
  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t width : {1u, 4u, 10u}) {
      for (uint32_t threads : {1u, 4u}) {
        // Small morsels so multi-thread runs really interleave claims.
        Executor exec(ExecConfig{policy, SchedulerParams{width, stages},
                                 threads, 256});
        std::vector<CountChecksumSink> sinks(threads);
        RunStats stats;
        if (early_exit) {
          stats = exec.RunOp(s.size(), [&](uint32_t tid) {
            return ProbeOp<true, CountChecksumSink>(table, s, sinks[tid]);
          });
        } else {
          stats = exec.RunOp(s.size(), [&](uint32_t tid) {
            return ProbeOp<false, CountChecksumSink>(table, s, sinks[tid]);
          });
        }
        CountChecksumSink merged;
        for (const auto& sink : sinks) merged.Merge(sink);
        EXPECT_EQ(merged.matches(), base.matches())
            << ExecPolicyName(policy) << " width=" << width
            << " threads=" << threads << " early=" << early_exit;
        EXPECT_EQ(merged.checksum(), base.checksum())
            << ExecPolicyName(policy) << " width=" << width
            << " threads=" << threads << " early=" << early_exit;
        EXPECT_EQ(stats.engine.lookups, s.size())
            << ExecPolicyName(policy) << " width=" << width
            << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzzTest,
                         ::testing::Range<uint64_t>(1000, 1025));

// ---------------------------------------------------------------------------
// Differential join harness: the full RunHashJoin driver (partitioned
// parallel build + morsel-driven parallel probe) must be bitwise-identical
// to the 1-thread sequential oracle across every ExecPolicy x thread count
// x in-flight width.  Because the partitioned build preserves per-bucket
// insertion order, this holds even for duplicate build keys under
// early-exit probes, where the *first* match in chain order is emitted.
// ---------------------------------------------------------------------------

struct DifferentialWorkload {
  const char* name;
  uint64_t r_size;
  uint64_t s_size;
  double zr;  ///< 0 = dense unique build keys
  double zs;
  bool early_exit;
  uint64_t seed;
};

class JoinDifferentialTest
    : public ::testing::TestWithParam<DifferentialWorkload> {};

TEST_P(JoinDifferentialTest, AllPoliciesThreadsWidthsMatchOracle) {
  const DifferentialWorkload& w = GetParam();
  const Relation r = w.zr == 0.0
                         ? MakeDenseUniqueRelation(w.r_size, w.seed)
                         : MakeZipfRelation(w.r_size, w.r_size / 2, w.zr,
                                            w.seed);
  const Relation s = w.zs == 0.0
                         ? MakeForeignKeyRelation(w.s_size, w.r_size,
                                                  w.seed + 1)
                         : MakeZipfRelation(w.s_size, w.r_size / 2, w.zs,
                                            w.seed + 1);

  const JoinOptions options{w.early_exit, 1.0, HashKind::kMurmur};
  Executor oracle_exec(ExecConfig{
      ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  const JoinResult oracle = RunHashJoin(oracle_exec, r, s, options);
  ASSERT_EQ(oracle.probe.inputs, s.size());

  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (uint32_t inflight : {1u, 10u, 32u}) {
        // Small morsels so multi-thread runs really interleave claims.
        Executor exec(ExecConfig{
            policy, SchedulerParams{inflight, 2, 0}, threads, 256});
        const JoinResult result = RunHashJoin(exec, r, s, options);
        EXPECT_EQ(result.matches(), oracle.matches())
            << w.name << " " << ExecPolicyName(policy)
            << " threads=" << threads << " inflight=" << inflight;
        EXPECT_EQ(result.checksum(), oracle.checksum())
            << w.name << " " << ExecPolicyName(policy)
            << " threads=" << threads << " inflight=" << inflight;
        EXPECT_EQ(result.probe.engine.lookups, s.size())
            << w.name << " " << ExecPolicyName(policy);
        EXPECT_EQ(result.build.engine.lookups, r.size())
            << w.name << " " << ExecPolicyName(policy);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, JoinDifferentialTest,
    ::testing::Values(
        DifferentialWorkload{"UniformFkEarlyExit", 4096, 6000, 0.0, 0.0,
                             true, 2001},
        DifferentialWorkload{"ZipfDuplicatesFullWalk", 4096, 6000, 0.9, 0.75,
                             false, 2002},
        DifferentialWorkload{"ZipfDuplicatesEarlyExit", 4096, 6000, 0.9,
                             0.75, true, 2003},
        DifferentialWorkload{"TinyBuildMissHeavy", 128, 5000, 0.0, 0.5,
                             true, 2004}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace amac
