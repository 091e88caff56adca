// RankGrid tests: the simulated policy-grid ranking is sane and
// deterministic.
#include "memsim/rank_grid.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "memsim/cache/trace.h"

namespace amac::memsim {
namespace {

AccessTrace DramBoundTrace() {
  // Scattered chase across 256 MB: every walk is DRAM-bound, the regime
  // where the schedules separate.
  return PointerChaseAccessTrace(4000, 4, 256ull << 20, 21);
}

TEST(SeedGridTest, CoversScalarPoliciesOnly) {
  const auto grid = DefaultRankGrid();
  ASSERT_FALSE(grid.empty());
  uint32_t sequential = 0;
  for (const GridPoint& p : grid) {
    EXPECT_NE(p.policy, ExecPolicy::kVectorized);
    EXPECT_NE(p.policy, ExecPolicy::kVectorizedAmac);
    EXPECT_NE(p.policy, ExecPolicy::kAdaptive);
    if (p.policy == ExecPolicy::kSequential) {
      ++sequential;
      EXPECT_EQ(p.inflight, 1u);  // baseline is definitionally M=1
    }
  }
  EXPECT_EQ(sequential, 1u);
}

TEST(SeedCalibratorTest, RanksInterleavingAboveBaselineWhenDramBound) {
  const AccessTrace trace = DramBoundTrace();
  const RankResult ranking = RankGrid(MachineConfig::XeonX5670(), trace);
  ASSERT_FALSE(ranking.table.empty());
  // Ascending cycles-per-input up to the 1% near-tie band, inside which
  // the cheaper engine ranks first (see rank_grid.cpp).
  for (size_t i = 1; i < ranking.table.size(); ++i) {
    EXPECT_LE(ranking.table[i - 1].cycles_per_input,
              ranking.table[i].cycles_per_input * 1.01);
  }
  EXPECT_TRUE(ranking.winner == ranking.table.front().point);
  EXPECT_EQ(ranking.winner_cycles_per_input,
            ranking.table.front().cycles_per_input);
  // The paper's core claim, reproduced by the model: the sequential
  // baseline cannot win a DRAM-bound pointer-chase grid.
  EXPECT_NE(ranking.winner.policy, ExecPolicy::kSequential);
}

TEST(SeedCalibratorTest, NearTieBreaksTowardCheaperEngine) {
  // Deep interleaving on a DRAM-bound chase hides the stage instruction
  // cost completely, so AMAC and its coroutine-framed variant simulate
  // within a hair of each other.  The ranking must never put the heavier
  // coroutine frame above the hand-packed AMAC state machine on such a
  // tie: the coroutine's resume overhead is real even when the model
  // cannot see it.
  const AccessTrace trace = DramBoundTrace();
  const RankResult ranking = RankGrid(MachineConfig::XeonX5670(), trace);
  const auto rank_of = [&ranking](ExecPolicy p, uint32_t m) {
    for (size_t i = 0; i < ranking.table.size(); ++i) {
      if (ranking.table[i].point.policy == p &&
          ranking.table[i].point.inflight == m) {
        return i;
      }
    }
    return ranking.table.size();
  };
  const auto cycles_of = [&ranking, &rank_of](ExecPolicy p, uint32_t m) {
    return ranking.table[rank_of(p, m)].cycles_per_input;
  };
  for (const uint32_t m : {4u, 10u, 16u, 32u}) {
    const double amac = cycles_of(ExecPolicy::kAmac, m);
    const double coro = cycles_of(ExecPolicy::kCoroutine, m);
    if (coro <= amac * 1.01 && amac <= coro * 1.01) {
      EXPECT_LT(rank_of(ExecPolicy::kAmac, m),
                rank_of(ExecPolicy::kCoroutine, m))
          << "inflight " << m;
    }
  }
}

TEST(SeedCalibratorTest, DeterministicRanking) {
  const AccessTrace trace = DramBoundTrace();
  const RankResult a = RankGrid(MachineConfig::XeonX5670(), trace);
  const RankResult b = RankGrid(MachineConfig::XeonX5670(), trace);
  ASSERT_EQ(a.table.size(), b.table.size());
  for (size_t i = 0; i < a.table.size(); ++i) {
    EXPECT_TRUE(a.table[i].point == b.table[i].point) << i;
    EXPECT_EQ(a.table[i].cycles_per_input, b.table[i].cycles_per_input)
        << i;
  }
}

}  // namespace
}  // namespace amac::memsim
