// Differential suites for the vectorized execution policies: kVectorized
// and kVectorizedAmac must produce bitwise the sequential oracle's results
// (match count + order-independent checksum) on every workload — across
// thread counts, inflight widths, lane-masking edge cases (input sizes not
// a multiple of 8, empty inputs, duplicate keys), and with SIMD force-
// disabled at runtime (the scalar fallback must implement the same
// schedule and the same results).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "btree/btree_ops.h"
#include "common/cpu_features.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "groupby/groupby.h"
#include "join/hash_join.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

constexpr ExecPolicy kVectorPolicies[] = {ExecPolicy::kVectorized,
                                          ExecPolicy::kVectorizedAmac};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { SetSimdLevelOverride(level); }
  ~ScopedSimdLevel() { ClearSimdLevelOverride(); }
};

Executor MakeExec(ExecPolicy policy, uint32_t inflight = 16,
                  uint32_t threads = 1, uint64_t morsel_size = 0) {
  return Executor(ExecConfig{policy, SchedulerParams{inflight, 1, 0}, threads,
                             morsel_size});
}

// ---------------------------------------------------------------- join --

/// Sweep axis: (early_exit via join options, inflight, threads).
class VectorJoinTest : public ::testing::TestWithParam<
                           std::tuple<bool, uint32_t, uint32_t>> {};

TEST_P(VectorJoinTest, MatchesSequentialOracle) {
  const auto [early_exit, inflight, threads] = GetParam();
  // 6001 probes: the tail morsel exercises partial lane masks.  Zipf build
  // keys create multi-node chains and duplicate matches.
  const Relation r = MakeZipfRelation(6000, 3000, 0.75, 41);
  const Relation s = MakeZipfRelation(6001, 3500, 0.5, 42);
  const JoinOptions options{early_exit, 1.0, HashKind::kMurmur};
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const JoinResult oracle = RunHashJoin(oracle_exec, r, s, options);
  for (ExecPolicy policy : kVectorPolicies) {
    Executor exec = MakeExec(policy, inflight, threads);
    const JoinResult got = RunHashJoin(exec, r, s, options);
    EXPECT_EQ(got.matches(), oracle.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(got.checksum(), oracle.checksum()) << ExecPolicyName(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VectorJoinTest,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(4u, 8u, 16u, 32u),
                       ::testing::Values(1u, 4u)));

TEST(VectorJoinEdgeTest, TinyAndUnalignedInputSizes) {
  // Every size 0..17 covers: empty input, fewer probes than one vector,
  // exactly one vector, and partial second vectors.
  const Relation r = MakeDenseUniqueRelation(64, 43);
  for (uint64_t n : {0ull, 1ull, 3ull, 7ull, 8ull, 9ull, 13ull, 16ull,
                     17ull}) {
    const Relation s = MakeForeignKeyRelation(n, 64, 44 + n);
    Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
    const JoinResult oracle = RunHashJoin(oracle_exec, r, s);
    for (ExecPolicy policy : kVectorPolicies) {
      Executor exec = MakeExec(policy);
      const JoinResult got = RunHashJoin(exec, r, s);
      EXPECT_EQ(got.matches(), oracle.matches())
          << ExecPolicyName(policy) << " n=" << n;
      EXPECT_EQ(got.checksum(), oracle.checksum())
          << ExecPolicyName(policy) << " n=" << n;
    }
  }
}

TEST(VectorJoinEdgeTest, AllDuplicateKeysLongChain) {
  // Every build tuple shares one key: a single maximal chain, all lanes
  // walking the same nodes; full-join mode emits n matches per probe hit.
  Relation r(512);
  for (uint64_t i = 0; i < 512; ++i) r[i] = Tuple{7, static_cast<int64_t>(i)};
  Relation s(37);  // not a multiple of 8
  for (uint64_t i = 0; i < 37; ++i) {
    s[i] = Tuple{static_cast<int64_t>(i % 2 == 0 ? 7 : 9999),
                 static_cast<int64_t>(i)};
  }
  const JoinOptions options{/*early_exit=*/false, 1.0, HashKind::kMurmur};
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const JoinResult oracle = RunHashJoin(oracle_exec, r, s, options);
  ASSERT_EQ(oracle.matches(), 19u * 512u);
  for (ExecPolicy policy : kVectorPolicies) {
    Executor exec = MakeExec(policy, 16);
    const JoinResult got = RunHashJoin(exec, r, s, options);
    EXPECT_EQ(got.matches(), oracle.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(got.checksum(), oracle.checksum()) << ExecPolicyName(policy);
  }
}

TEST(VectorJoinEdgeTest, ForcedScalarFallbackMatches) {
  // With SIMD forced off at runtime the same vector schedules must run on
  // the scalar kernel paths and still match the oracle.
  const Relation r = MakeZipfRelation(4000, 2000, 0.9, 45);
  const Relation s = MakeZipfRelation(4003, 2500, 0.6, 46);
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const JoinResult oracle = RunHashJoin(oracle_exec, r, s);
  ScopedSimdLevel force(SimdLevel::kScalar);
  for (ExecPolicy policy : kVectorPolicies) {
    Executor exec = MakeExec(policy, 16, 2);
    const JoinResult got = RunHashJoin(exec, r, s);
    EXPECT_EQ(got.matches(), oracle.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(got.checksum(), oracle.checksum()) << ExecPolicyName(policy);
  }
}

TEST(VectorJoinEdgeTest, RadixHashTableMatches) {
  const Relation r = MakeDenseUniqueRelation(5000, 47);
  const Relation s = MakeForeignKeyRelation(5005, 5000, 48);
  const JoinOptions options{/*early_exit=*/true, 1.0, HashKind::kRadix};
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const JoinResult oracle = RunHashJoin(oracle_exec, r, s, options);
  for (ExecPolicy policy : kVectorPolicies) {
    Executor exec = MakeExec(policy);
    const JoinResult got = RunHashJoin(exec, r, s, options);
    EXPECT_EQ(got.matches(), oracle.matches()) << ExecPolicyName(policy);
    EXPECT_EQ(got.checksum(), oracle.checksum()) << ExecPolicyName(policy);
  }
}

TEST(VectorJoinEdgeTest, EmptySlotSentinelKeys) {
  // The gather kernels mark unused tuple slots with
  // BucketNode::kEmptySlotKey (INT64_MIN).  Two hazards are pinned here:
  // a *build* key equal to the sentinel (the table flags
  // has_sentinel_key() and probes must take the scalar walk), and a
  // *probe* key equal to the sentinel against a sentinel-free table (the
  // kernels must not match it against unused slots).
  Relation r_with(100);
  for (uint64_t i = 0; i < 100; ++i) {
    r_with[i] = Tuple{static_cast<int64_t>(i % 50), static_cast<int64_t>(i)};
  }
  r_with[17].key = BucketNode::kEmptySlotKey;
  r_with[71].key = BucketNode::kEmptySlotKey;
  Relation r_without = MakeDenseUniqueRelation(100, 51);
  Relation s(41);
  for (uint64_t i = 0; i < 41; ++i) {
    s[i] = Tuple{i % 5 == 0 ? BucketNode::kEmptySlotKey
                            : static_cast<int64_t>(i % 60),
                 static_cast<int64_t>(i)};
  }
  for (const Relation* r : {&r_with, &r_without}) {
    for (bool early_exit : {false, true}) {
      const JoinOptions options{early_exit, 1.0, HashKind::kMurmur};
      Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
      const JoinResult oracle = RunHashJoin(oracle_exec, *r, s, options);
      for (ExecPolicy policy : kVectorPolicies) {
        Executor exec = MakeExec(policy);
        const JoinResult got = RunHashJoin(exec, *r, s, options);
        EXPECT_EQ(got.matches(), oracle.matches())
            << ExecPolicyName(policy) << " early=" << early_exit;
        EXPECT_EQ(got.checksum(), oracle.checksum())
            << ExecPolicyName(policy) << " early=" << early_exit;
      }
    }
  }
}

// ------------------------------------------------------------- groupby --
// GroupByOp's vector interface (groupby/vec_groupby.h) gathers the chain
// walk 8-wide under the bucket latches; every vector policy x thread count
// must produce the sequential oracle's exact table.

TEST(VectorGroupByTest, GatheredWalkMatchesSequentialOracle) {
  const Relation input = MakeZipfRelation(20000, 600, 0.9, 49);
  AggregateTable oracle_table(1200, AggregateTable::Options{});
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const RunStats oracle = RunGroupBy(oracle_exec, input, &oracle_table);
  for (ExecPolicy policy : kVectorPolicies) {
    for (uint32_t threads : {1u, 4u}) {
      AggregateTable table(1200, AggregateTable::Options{});
      Executor exec = MakeExec(policy, 16, threads);
      const RunStats got = RunGroupBy(exec, input, &table);
      EXPECT_EQ(got.outputs, oracle.outputs) << ExecPolicyName(policy);
      EXPECT_EQ(got.checksum, oracle.checksum) << ExecPolicyName(policy);
    }
  }
}

TEST(VectorGroupByTest, SentinelGroupKeyTakesScalarLanes) {
  // Group keys equal to GroupNode::kEmptyGroupKey cannot use the gathered
  // key-compare (it would match unused nodes); those lanes must classify
  // scalar and still aggregate exactly.  Mix sentinel rows among normal
  // keys, including chain collisions.
  Relation input(4096);
  for (uint64_t i = 0; i < input.size(); ++i) {
    const int64_t key = (i % 3 == 0) ? GroupNode::kEmptyGroupKey
                                     : static_cast<int64_t>(i % 37);
    input[i] = Tuple{key, static_cast<int64_t>(i)};
  }
  AggregateTable oracle_table(128, AggregateTable::Options{});
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const RunStats oracle = RunGroupBy(oracle_exec, input, &oracle_table);
  EXPECT_EQ(oracle.outputs, 38u);  // 37 normal groups + the sentinel group
  for (ExecPolicy policy : kVectorPolicies) {
    for (uint32_t threads : {1u, 4u}) {
      AggregateTable table(128, AggregateTable::Options{});
      Executor exec = MakeExec(policy, 16, threads);
      const RunStats got = RunGroupBy(exec, input, &table);
      EXPECT_EQ(got.outputs, oracle.outputs) << ExecPolicyName(policy);
      EXPECT_EQ(got.checksum, oracle.checksum) << ExecPolicyName(policy);
    }
  }
}

// ------------------------------------------------------------ bst/btree --

template <typename MakeOp>
std::pair<uint64_t, uint64_t> RunSearch(ExecPolicy policy, uint32_t inflight,
                                        uint32_t threads, uint64_t n,
                                        MakeOp&& make) {
  std::vector<CountChecksumSink> sinks(threads);
  Executor exec = MakeExec(policy, inflight, threads);
  exec.RunOp(n, [&](uint32_t tid) { return make(sinks[tid]); });
  CountChecksumSink total;
  for (const auto& s : sinks) total.Merge(s);
  return {total.matches(), total.checksum()};
}

class VectorTreeTest : public ::testing::TestWithParam<
                           std::tuple<uint32_t, uint32_t>> {};

TEST_P(VectorTreeTest, BstMatchesSequentialOracle) {
  const auto [inflight, threads] = GetParam();
  const uint64_t n = 6007;  // prime: every morsel tail is lane-masked
  const Relation rel = MakeDenseUniqueRelation(5000, 51);
  const BinarySearchTree tree = BuildBst(rel);
  // Probe keys overshoot the stored range: ~1/3 of lookups miss.
  const Relation probe = MakeForeignKeyRelation(n, 7500, 52);
  const auto oracle =
      RunSearch(ExecPolicy::kSequential, 1, 1, n, [&](CountChecksumSink& s) {
        return BstSearchOp<CountChecksumSink>(tree, probe, s);
      });
  for (ExecPolicy policy : kVectorPolicies) {
    const auto got =
        RunSearch(policy, inflight, threads, n, [&](CountChecksumSink& s) {
          return BstSearchOp<CountChecksumSink>(tree, probe, s);
        });
    EXPECT_EQ(got, oracle) << ExecPolicyName(policy);
  }
}

TEST_P(VectorTreeTest, BTreeMatchesSequentialOracle) {
  const auto [inflight, threads] = GetParam();
  const uint64_t n = 6007;
  const Relation rel = MakeDenseUniqueRelation(8000, 53);
  const BTree tree(rel);
  const Relation probe = MakeForeignKeyRelation(n, 12000, 54);
  const auto oracle =
      RunSearch(ExecPolicy::kSequential, 1, 1, n, [&](CountChecksumSink& s) {
        return BTreeSearchOp<CountChecksumSink>(tree, probe, s);
      });
  for (ExecPolicy policy : kVectorPolicies) {
    const auto got =
        RunSearch(policy, inflight, threads, n, [&](CountChecksumSink& s) {
          return BTreeSearchOp<CountChecksumSink>(tree, probe, s);
        });
    EXPECT_EQ(got, oracle) << ExecPolicyName(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorTreeTest,
                         ::testing::Combine(::testing::Values(8u, 16u, 32u),
                                            ::testing::Values(1u, 4u)));

TEST(VectorTreeTest, ForcedScalarFallbackMatches) {
  const uint64_t n = 3001;
  const Relation rel = MakeDenseUniqueRelation(4000, 55);
  const BinarySearchTree bst = BuildBst(rel);
  const BTree btree(rel);
  const Relation probe = MakeForeignKeyRelation(n, 6000, 56);
  const auto bst_oracle =
      RunSearch(ExecPolicy::kSequential, 1, 1, n, [&](CountChecksumSink& s) {
        return BstSearchOp<CountChecksumSink>(bst, probe, s);
      });
  const auto btree_oracle =
      RunSearch(ExecPolicy::kSequential, 1, 1, n, [&](CountChecksumSink& s) {
        return BTreeSearchOp<CountChecksumSink>(btree, probe, s);
      });
  ScopedSimdLevel force(SimdLevel::kScalar);
  for (ExecPolicy policy : kVectorPolicies) {
    const auto bst_got =
        RunSearch(policy, 16, 1, n, [&](CountChecksumSink& s) {
          return BstSearchOp<CountChecksumSink>(bst, probe, s);
        });
    const auto btree_got =
        RunSearch(policy, 16, 1, n, [&](CountChecksumSink& s) {
          return BTreeSearchOp<CountChecksumSink>(btree, probe, s);
        });
    EXPECT_EQ(bst_got, bst_oracle) << ExecPolicyName(policy);
    EXPECT_EQ(btree_got, btree_oracle) << ExecPolicyName(policy);
  }
}

// ------------------------------------------------------------ adaptive --
// The widened grid (kVectorized + kVectorizedAmac points) must keep the
// adaptive executor's results exact.

TEST(VectorAdaptiveTest, AdaptiveWithVectorGridMatchesOracle) {
  const Relation r = MakeDenseUniqueRelation(1 << 15, 57);
  const Relation s = MakeForeignKeyRelation(1 << 15, 1 << 15, 58);
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const JoinResult oracle = RunHashJoin(oracle_exec, r, s);
  ExecConfig config{ExecPolicy::kAdaptive, SchedulerParams{16, 1, 0}, 2, 0};
  Executor exec(config);
  const JoinResult got = RunHashJoin(exec, r, s);
  EXPECT_EQ(got.matches(), oracle.matches());
  EXPECT_EQ(got.checksum(), oracle.checksum());
}

}  // namespace
}  // namespace amac
