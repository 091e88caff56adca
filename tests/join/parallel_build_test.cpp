// Partitioned parallel build determinism: for any thread count and policy,
// BuildPhase must produce chains whose per-bucket contents are
// *bit-identical in chain order* to a sequential build's — not just the
// same multiset.  Chain order is load-bearing: early-exit probes emit the
// first match in chain order, so a reordered chain silently changes join
// output on duplicate keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pipeline.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "relation/relation.h"

namespace amac {
namespace {

/// Every bucket's chain contents, in probe (chain-walk) order.
std::vector<std::vector<Tuple>> AllChains(const ChainedHashTable& table) {
  std::vector<std::vector<Tuple>> chains(table.num_buckets());
  for (uint64_t b = 0; b < table.num_buckets(); ++b) {
    table.CollectChain(b, &chains[b]);
  }
  return chains;
}

void ExpectChainsEqual(const std::vector<std::vector<Tuple>>& got,
                       const std::vector<std::vector<Tuple>>& want,
                       const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (uint64_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].size(), want[b].size())
        << label << " bucket " << b << " chain length";
    for (uint64_t i = 0; i < got[b].size(); ++i) {
      ASSERT_TRUE(got[b][i] == want[b][i])
          << label << " bucket " << b << " slot " << i << ": got ("
          << got[b][i].key << "," << got[b][i].payload << ") want ("
          << want[b][i].key << "," << want[b][i].payload << ")";
    }
  }
}

Relation DuplicateHeavyRelation(uint64_t n, uint64_t distinct_keys) {
  Relation rel(n);
  for (uint64_t i = 0; i < n; ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i % distinct_keys),
                   static_cast<int64_t>(i)};
  }
  return rel;
}

class ParallelBuildTest : public ::testing::TestWithParam<ExecPolicy> {};

TEST_P(ParallelBuildTest, ZipfSkewedChainsMatchSequentialBuild) {
  const ExecPolicy policy = GetParam();
  const Relation rel = MakeZipfRelation(20000, 3000, 1.0, 81);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);
  const auto want = AllChains(reference);

  for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    Executor exec(
        ExecConfig{policy, SchedulerParams{8, 1, 0}, threads, 0});
    const RunStats build = BuildPhase(exec, rel, &table);
    EXPECT_EQ(build.inputs, rel.size());
    EXPECT_EQ(build.engine.lookups, rel.size());
    ExpectChainsEqual(AllChains(table), want, ExecPolicyName(policy));
  }
}

TEST_P(ParallelBuildTest, DuplicateHeavyChainsMatchSequentialBuild) {
  const ExecPolicy policy = GetParam();
  // 64 distinct keys over 12k tuples: every bucket chain is long and
  // insertion-order-sensitive.
  const Relation rel = DuplicateHeavyRelation(12000, 64);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);
  const auto want = AllChains(reference);

  for (uint32_t threads : {1u, 2u, 5u, 8u}) {
    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    Executor exec(
        ExecConfig{policy, SchedulerParams{6, 1, 0}, threads, 0});
    BuildPhase(exec, rel, &table);
    ExpectChainsEqual(AllChains(table), want, ExecPolicyName(policy));
  }
}

TEST_P(ParallelBuildTest, MoreThreadsThanTuples) {
  const ExecPolicy policy = GetParam();
  const Relation rel = MakeDenseUniqueRelation(5, 82);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);

  ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
  Executor exec(ExecConfig{policy, SchedulerParams{10, 1, 0}, 8, 0});
  BuildPhase(exec, rel, &table);
  ExpectChainsEqual(AllChains(table), AllChains(reference),
                    ExecPolicyName(policy));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ParallelBuildTest,
                         ::testing::ValuesIn(kAllExecPolicies),
                         [](const auto& info) {
                           return ExecPolicyName(info.param);
                         });

// BuildOp<true> is the latched variant for builds into a *shared* table
// (morsel-driven, no bucket ownership): threads collide on bucket latches
// and the try-acquire parks with kRetry.  Chain order is nondeterministic
// under contention, so compare per-key payload multisets, not chains.
TEST(SyncBuildOpTest, LatchedSharedTableBuildUnderContention) {
  // 16 distinct keys over 8000 tuples: heavy latch contention everywhere.
  const Relation rel = DuplicateHeavyRelation(8000, 16);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);

  for (ExecPolicy policy : kAllExecPolicies) {
    for (uint32_t threads : {2u, 4u}) {
      ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
      Executor exec(ExecConfig{policy, SchedulerParams{8, 2}, threads, 256});
      const RunStats stats = exec.RunOp(
          rel.size(), [&](uint32_t) { return BuildOp<true>(table, rel); });
      EXPECT_EQ(stats.engine.lookups, rel.size())
          << ExecPolicyName(policy) << " threads=" << threads;
      for (int64_t key = 0; key < 16; ++key) {
        std::vector<int64_t> got, want;
        table.FindAll(key, &got);
        reference.FindAll(key, &want);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << ExecPolicyName(policy)
                             << " threads=" << threads << " key=" << key;
      }
    }
  }
}

}  // namespace
}  // namespace amac
