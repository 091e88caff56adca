// Build equivalence: every schedule's build must produce a table with the
// same per-key contents as the reference build, single- and
// multi-threaded, for uniform and skewed key distributions; the generic
// BuildOp's chains match the Baseline build's exactly at edge-case windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baseline_loops.h"
#include "core/scheduler.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "relation/relation.h"

namespace amac {
namespace {

std::map<int64_t, std::vector<int64_t>> TableContents(
    const ChainedHashTable& table, const Relation& keys) {
  std::map<int64_t, std::vector<int64_t>> contents;
  for (const Tuple& t : keys) {
    if (contents.count(t.key)) continue;
    std::vector<int64_t> payloads;
    table.FindAll(t.key, &payloads);
    std::sort(payloads.begin(), payloads.end());
    contents[t.key] = std::move(payloads);
  }
  return contents;
}

class BuildEngineTest : public ::testing::TestWithParam<ExecPolicy> {};

TEST_P(BuildEngineTest, SingleThreadMatchesReference) {
  const ExecPolicy policy = GetParam();
  for (double theta : {0.0, 0.75}) {
    const Relation rel =
        theta == 0.0 ? MakeDenseUniqueRelation(5000, 51)
                     : MakeZipfRelation(5000, 2000, theta, 52);
    ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
    BuildTableUnsync(rel, &reference);

    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    Executor exec(
        ExecConfig{policy, SchedulerParams{8, 1, 0}, 1, 0});
    const RunStats build = BuildPhase(exec, rel, &table);
    EXPECT_EQ(build.inputs, rel.size());
    EXPECT_EQ(TableContents(table, rel), TableContents(reference, rel))
        << ExecPolicyName(policy) << " theta=" << theta;
  }
}

TEST_P(BuildEngineTest, MultiThreadMatchesReference) {
  const ExecPolicy policy = GetParam();
  const Relation rel = MakeZipfRelation(20000, 4000, 0.5, 53);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);

  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  Executor exec(ExecConfig{policy, SchedulerParams{6, 1, 0}, 4, 0});
  BuildPhase(exec, rel, &table);
  EXPECT_EQ(TableContents(table, rel), TableContents(reference, rel))
      << ExecPolicyName(policy);
}

TEST_P(BuildEngineTest, HotBucketContention) {
  // All tuples share one key: maximal latch contention, long chain.
  const ExecPolicy policy = GetParam();
  Relation rel(3000);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{99, static_cast<int64_t>(i)};
  }
  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  Executor exec(ExecConfig{policy, SchedulerParams{10, 1, 0}, 4, 0});
  BuildPhase(exec, rel, &table);
  std::vector<int64_t> payloads;
  table.FindAll(99, &payloads);
  EXPECT_EQ(payloads.size(), rel.size());
  std::sort(payloads.begin(), payloads.end());
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], static_cast<int64_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BuildEngineTest,
                         ::testing::Values(ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                                           ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac),
                         [](const auto& info) {
                           return ExecPolicyName(info.param);
                         });

/// Builds `rel` with the generic BuildOp under `policy` and expects chains
/// bitwise-identical to the Baseline build's (single-Step inserts complete
/// in input order under every schedule).
void ExpectBuildMatchesBaseline(ExecPolicy policy,
                                const SchedulerParams& params,
                                const Relation& rel) {
  ChainedHashTable baseline(rel.size(), ChainedHashTable::Options{});
  BuildBaseline(rel, 0, rel.size(), baseline);
  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  BuildOp<false> op(table, rel);
  amac::Run(policy, params, op, rel.size());
  EXPECT_EQ(table.ComputeStats().total_tuples, rel.size());
  for (uint64_t b = 0; b < table.num_buckets(); ++b) {
    std::vector<Tuple> got, want;
    table.CollectChain(b, &got);
    baseline.CollectChain(b, &want);
    ASSERT_EQ(got, want) << ExecPolicyName(policy) << " bucket " << b;
  }
}

TEST(BuildKernelTest, AmacBuildWithTinyWindow) {
  ExpectBuildMatchesBaseline(ExecPolicy::kAmac, SchedulerParams{1, 1},
                             MakeDenseUniqueRelation(1000, 54));
}

TEST(BuildKernelTest, SppBuildWithLargeDistance) {
  ExpectBuildMatchesBaseline(ExecPolicy::kSoftwarePipelined,
                             SchedulerParams{64, 1},
                             MakeDenseUniqueRelation(100, 55));
}

TEST(BuildKernelTest, GpBuildGroupLargerThanInput) {
  ExpectBuildMatchesBaseline(ExecPolicy::kGroupPrefetch,
                             SchedulerParams{64, 1},
                             MakeDenseUniqueRelation(10, 56));
}

}  // namespace
}  // namespace amac
