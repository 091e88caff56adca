// QueryGovernor: the online epsilon-greedy / drift-retune loop.  Pins
// (a) full decision-sequence determinism under a fixed common/rng.h seed,
// (b) calibration -> running convergence on a synthetic cost model,
// (c) cache-hit construction skipping calibration entirely,
// (d) drift-triggered re-tuning switching the winner (and keeping the
//     explore set), and
// (e) epsilon-greedy exploration accounting, robust to one outlier
//     morsel.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "adaptive/governor.h"

namespace amac {
namespace {

/// Synthetic cost model: cycles-per-input as a function of the chosen
/// schedule.  `fast` is the planted optimum; everybody else pays slow_cpi
/// plus a small width gradient (wider = slightly cheaper), so there are no
/// cost ties and the halving order — hence the survivor set — is fully
/// determined.  The gradient keeps every width-32 point in the top half.
struct CostModel {
  GridPoint fast{ExecPolicy::kAmac, 16};
  double fast_cpi = 2.0;
  double slow_cpi = 20.0;

  uint64_t Cycles(const QueryGovernor::Choice& c, uint64_t inputs) const {
    const bool is_fast =
        c.policy == fast.policy && c.params.inflight == fast.inflight;
    const double cpi =
        is_fast ? fast_cpi
                : slow_cpi + 0.05 * (40.0 - c.params.inflight);
    return static_cast<uint64_t>(cpi * static_cast<double>(inputs));
  }
};

/// Drive `morsels` morsels through the governor under `model`, recording
/// each decision.
std::vector<GridPoint> Drive(QueryGovernor* governor, const CostModel& model,
                             uint32_t morsels, uint64_t inputs = 1000) {
  std::vector<GridPoint> decisions;
  decisions.reserve(morsels);
  for (uint32_t i = 0; i < morsels; ++i) {
    const QueryGovernor::Choice c = governor->Acquire();
    decisions.push_back(GridPoint{c.policy, c.params.inflight});
    governor->Report(c, inputs, model.Cycles(c, inputs));
  }
  return decisions;
}

TEST(QueryGovernorTest, ConvergesToPlantedOptimum) {
  AdaptiveConfig config;
  config.epsilon = 0;  // isolate calibration convergence
  QueryGovernor governor(config, nullptr, WorkloadSignature{}, 1);
  CostModel model;
  Drive(&governor, model, 200);
  const GridPoint chosen = governor.current();
  EXPECT_EQ(chosen.policy, model.fast.policy);
  EXPECT_EQ(chosen.inflight, model.fast.inflight);
  AdaptiveStats stats;
  governor.Finalize(&stats);
  EXPECT_TRUE(stats.active);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_GT(stats.calibration_morsels, 0u);
  EXPECT_EQ(stats.chosen_policy, model.fast.policy);
  EXPECT_EQ(stats.tuning_switches, 0u);
}

TEST(QueryGovernorTest, DeterministicUnderFixedSeed) {
  // Identical config (same rng seed) + identical report sequence =>
  // identical decision sequence, morsel for morsel.
  AdaptiveConfig config;
  config.epsilon = 0.25;  // exploration on, so the rng actually steers
  const uint64_t seed = 0xfeedfacecafef00dull;
  CostModel model;
  QueryGovernor a(config, nullptr, WorkloadSignature{}, 2, seed);
  QueryGovernor b(config, nullptr, WorkloadSignature{}, 2, seed);
  const auto da = Drive(&a, model, 300);
  const auto db = Drive(&b, model, 300);
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) {
    EXPECT_TRUE(da[i] == db[i]) << "diverged at morsel " << i;
  }
  EXPECT_EQ(a.tuning_switches(), b.tuning_switches());

  // A different seed must (eventually) explore differently.
  QueryGovernor c(config, nullptr, WorkloadSignature{}, 2, /*seed=*/1);
  const auto dc = Drive(&c, model, 300);
  bool any_difference = false;
  for (size_t i = 0; i < da.size(); ++i) {
    if (!(da[i] == dc[i])) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(QueryGovernorTest, CacheHitSkipsCalibration) {
  Calibrator calibrator;
  const auto sig = WorkloadSignature::Make("op", 1 << 16, 8);
  AdaptiveConfig config;
  config.epsilon = 0;
  CostModel model;
  {
    QueryGovernor first(config, &calibrator, sig, 1);
    Drive(&first, model, 100);
    AdaptiveStats stats;
    first.Finalize(&stats);
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_GT(stats.calibration_morsels, 0u);
  }
  EXPECT_EQ(calibrator.entries(), 1u);
  {
    QueryGovernor second(config, &calibrator, sig, 1);
    // The very first acquire already runs the cached winner.
    const QueryGovernor::Choice c = second.Acquire();
    EXPECT_EQ(c.policy, model.fast.policy);
    EXPECT_EQ(c.params.inflight, model.fast.inflight);
    second.Report(c, 1000, model.Cycles(c, 1000));
    AdaptiveStats stats;
    second.Finalize(&stats);
    EXPECT_TRUE(stats.cache_hit);
    EXPECT_EQ(stats.calibration_morsels, 0u);
  }
  EXPECT_GE(calibrator.hits(), 1u);
}

TEST(QueryGovernorTest, DriftTriggersRetuneAndSwitch) {
  AdaptiveConfig config;
  config.epsilon = 0;  // no exploration: only drift can change the winner
  config.drift_ratio = 0.5;
  QueryGovernor governor(config, nullptr, WorkloadSignature{}, 1);
  CostModel model;  // AMAC/16 fast
  Drive(&governor, model, 120);
  ASSERT_EQ(governor.current().policy, model.fast.policy);
  EXPECT_EQ(governor.tuning_switches(), 0u);

  // The world changes: the old winner becomes terrible, Coroutine/32 is
  // now the planted optimum.  The winner's EWMA blows past the drift
  // threshold, forcing a re-tune over the survivor set.
  CostModel shifted;
  shifted.fast = GridPoint{ExecPolicy::kCoroutine, 32};
  shifted.fast_cpi = 2.0;
  shifted.slow_cpi = 40.0;
  Drive(&governor, shifted, 400);
  const GridPoint after = governor.current();
  EXPECT_EQ(after.policy, shifted.fast.policy);
  EXPECT_EQ(after.inflight, shifted.fast.inflight);
  EXPECT_GE(governor.tuning_switches(), 1u);
}

TEST(QueryGovernorTest, RetunesKeepTheExploreSet) {
  // A re-tune re-picks the winner from the explore set without shrinking
  // it: the optimum can move back to a point an earlier re-tune ranked
  // low, and the calibration cache hands the set on to later queries.
  Calibrator calibrator;
  const auto sig = WorkloadSignature::Make("op", 1 << 16, 8);
  AdaptiveConfig config;
  config.epsilon = 0;  // only drift re-tunes change the winner
  QueryGovernor governor(config, &calibrator, sig, 1);
  CostModel model;  // AMAC/16 fast
  Drive(&governor, model, 120);
  ASSERT_TRUE(governor.current() == model.fast);
  const size_t explore = calibrator.PeekResult(sig)->survivors.size();
  ASSERT_GT(explore, 2u);
  // The optimum alternates between two explore-set points; each move
  // makes the old winner drift and forces a re-tune.
  const GridPoint optima[2] = {GridPoint{ExecPolicy::kCoroutine, 32},
                               model.fast};
  for (int move = 0; move < 6; ++move) {
    CostModel shifted;
    shifted.fast = optima[move % 2];
    shifted.slow_cpi = 40.0;
    Drive(&governor, shifted, 400);
    EXPECT_TRUE(governor.current() == shifted.fast) << "move " << move;
    EXPECT_EQ(calibrator.PeekResult(sig)->survivors.size(), explore)
        << "move " << move;
  }
}

TEST(QueryGovernorTest, OneOutlierMorselDoesNotDeposeTheWinner) {
  // Skewed data makes morsel costs heavy-tailed under every schedule.  One
  // winner morsel at 100x its usual cost must not let the next probe of a
  // 10x slower point take over.
  AdaptiveConfig config;
  config.epsilon = 0.5;    // probe often: a usurp would follow at once
  config.drift_ratio = 0;  // isolate the probe rule
  QueryGovernor governor(config, nullptr, WorkloadSignature{}, 1);
  CostModel model;  // AMAC/16 at 2 cycles/input, every other point ~20
  Drive(&governor, model, 200);
  ASSERT_TRUE(governor.current() == model.fast);
  const uint32_t switches = governor.tuning_switches();
  for (;;) {
    const QueryGovernor::Choice c = governor.Acquire();
    const bool winner = GridPoint{c.policy, c.params.inflight} == model.fast;
    governor.Report(c, 1000, (winner ? 100 : 1) * model.Cycles(c, 1000));
    if (winner) break;
  }
  Drive(&governor, model, 40);
  EXPECT_TRUE(governor.current() == model.fast);
  EXPECT_EQ(governor.tuning_switches(), switches);
}

TEST(QueryGovernorTest, EpsilonZeroNeverProbes) {
  AdaptiveConfig config;
  config.epsilon = 0;
  QueryGovernor governor(config, nullptr, WorkloadSignature{}, 1);
  CostModel model;
  Drive(&governor, model, 300);
  AdaptiveStats stats;
  governor.Finalize(&stats);
  EXPECT_EQ(stats.probe_morsels, 0u);
}

TEST(QueryGovernorTest, EpsilonOneAlwaysProbesAfterCalibration) {
  AdaptiveConfig config;
  config.epsilon = 1.0;
  QueryGovernor governor(config, nullptr, WorkloadSignature{}, 1);
  // Every probed point costs ~10x the planted winner, so no probe clears
  // the switch margin: the accounting is isolated from usurps.
  CostModel model;
  // Long enough to finish calibration and then probe every morsel.
  Drive(&governor, model, 300);
  AdaptiveStats stats;
  governor.Finalize(&stats);
  EXPECT_GT(stats.probe_morsels, 0u);
  EXPECT_EQ(stats.probe_morsels + stats.calibration_morsels, 300u);
}

TEST(QueryGovernorTest, StaleEpochReportsAreIgnored) {
  AdaptiveConfig config;
  config.epsilon = 0;
  config.drift_ratio = 0.5;
  QueryGovernor governor(config, nullptr, WorkloadSignature{}, 1);
  CostModel model;
  Drive(&governor, model, 120);  // calibration complete, steady state
  // Hold a steady-state choice from this epoch...
  const QueryGovernor::Choice held = governor.Acquire();
  // ...then shift the world so a drift re-tune runs (epoch advances twice:
  // into the re-tune episode and out of it)...
  CostModel shifted;
  shifted.fast = GridPoint{ExecPolicy::kCoroutine, 32};
  shifted.slow_cpi = 40.0;
  Drive(&governor, shifted, 400);
  const uint32_t switches_before = governor.tuning_switches();
  const GridPoint before = governor.current();
  // ...and deliver the held report from the superseded epoch: it must be
  // dropped, not fold an absurdly-fast sample into the new winner's EWMA.
  governor.Report(held, 1000, 1);
  EXPECT_EQ(governor.tuning_switches(), switches_before);
  EXPECT_TRUE(governor.current() == before);
}

}  // namespace
}  // namespace amac
