// CalibrationEpisode (successive halving over synthetic costs) and the
// Calibrator cache: the tournament must find a planted winner, terminate
// in bounded measurement morsels, and cache hits must skip re-measurement.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "adaptive/calibrator.h"

namespace amac {
namespace {

/// Synthetic cost model: cycles-per-input per grid point, index-addressed.
uint64_t SyntheticCycles(size_t index, uint64_t inputs,
                         const std::vector<double>& cpi) {
  return static_cast<uint64_t>(cpi[index] * static_cast<double>(inputs));
}

/// Drive an episode to completion against a synthetic cost vector,
/// returning the number of measured morsels consumed.  Bounded, so a
/// non-terminating episode fails the done() expectations instead of
/// hanging the test.
uint64_t DriveToCompletion(CalibrationEpisode* episode,
                           const std::vector<double>& cpi,
                           uint64_t morsel_inputs = 1000) {
  for (uint32_t guard = 0; guard < 10000 && !episode->done(); ++guard) {
    const auto a = episode->Next();
    if (a.measured) {
      episode->Report(a.index, morsel_inputs,
                      SyntheticCycles(a.index, morsel_inputs, cpi));
    }
  }
  EXPECT_TRUE(episode->done()) << "episode failed to terminate";
  return episode->measured_morsels();
}

TEST(CalibrationEpisodeTest, FindsPlantedWinner) {
  // 8 candidates, costs 10..17 except index 5 planted at 2.
  std::vector<GridPoint> grid;
  std::vector<double> cpi;
  for (uint32_t i = 0; i < 8; ++i) {
    grid.push_back(GridPoint{ExecPolicy::kAmac, i + 1});
    cpi.push_back(i == 5 ? 2.0 : 10.0 + i);
  }
  CalibrationEpisode episode(grid, /*measure_morsels=*/1);
  DriveToCompletion(&episode, cpi);
  EXPECT_TRUE(episode.done());
  EXPECT_EQ(episode.best(), 5u);
  EXPECT_NEAR(episode.BestCyclesPerInput(), 2.0, 1e-9);
}

TEST(CalibrationEpisodeTest, MeasurementBudgetIsBounded) {
  // n + ceil(n/2) + ceil(n/4) + ... <= 2n + log2(n) measured morsels at
  // quota 1 (each ceil adds at most one extra over the geometric sum).
  std::vector<GridPoint> grid;
  std::vector<double> cpi;
  for (uint32_t i = 0; i < 17; ++i) {
    grid.push_back(GridPoint{ExecPolicy::kGroupPrefetch, i + 1});
    cpi.push_back(5.0 + i);
  }
  CalibrationEpisode episode(grid, 1);
  const uint64_t measured = DriveToCompletion(&episode, cpi);
  EXPECT_LE(measured, 2 * grid.size() + 5);
  EXPECT_GE(measured, grid.size());  // every candidate measured at least once
}

TEST(CalibrationEpisodeTest, SurvivorsAreTheFasterHalf) {
  std::vector<GridPoint> grid;
  std::vector<double> cpi;
  for (uint32_t i = 0; i < 8; ++i) {
    grid.push_back(GridPoint{ExecPolicy::kAmac, (i + 1) * 2});
    cpi.push_back(static_cast<double>(i + 1));  // index 0 fastest
  }
  CalibrationEpisode episode(grid, 1);
  DriveToCompletion(&episode, cpi);
  const std::vector<GridPoint> survivors = episode.Survivors();
  ASSERT_EQ(survivors.size(), 4u);
  // First-halving survivors are the 4 cheapest, best-first.
  for (size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[i].inflight, (i + 1) * 2) << i;
  }
}

TEST(CalibrationEpisodeTest, SingleCandidateStillMeasuresBaseline) {
  CalibrationEpisode episode({GridPoint{ExecPolicy::kSequential, 1}}, 2);
  std::vector<double> cpi{7.0};
  DriveToCompletion(&episode, cpi);
  EXPECT_TRUE(episode.done());
  EXPECT_EQ(episode.best(), 0u);
  EXPECT_NEAR(episode.BestCyclesPerInput(), 7.0, 1e-9);
  EXPECT_EQ(episode.measured_morsels(), 2u);
}

TEST(CalibrationEpisodeTest, RideAlongAssignmentsWhenRoundSaturated) {
  // With one candidate pending report, extra Next() calls must not block
  // or over-assign measurements.
  std::vector<GridPoint> grid{GridPoint{ExecPolicy::kAmac, 4},
                              GridPoint{ExecPolicy::kAmac, 8}};
  CalibrationEpisode episode(grid, 1);
  const auto a0 = episode.Next();
  const auto a1 = episode.Next();
  EXPECT_TRUE(a0.measured);
  EXPECT_TRUE(a1.measured);
  const auto ride = episode.Next();  // round fully assigned
  EXPECT_FALSE(ride.measured);
  episode.Report(a0.index, 100, 100);
  episode.Report(a1.index, 100, 500);
  EXPECT_TRUE(episode.done());
  EXPECT_EQ(episode.best(), a0.index);
}

TEST(CalibratorTest, GridCrossesPoliciesAndWidths) {
  const std::vector<GridPoint> grid = Calibrator::Grid();
  // kSequential once + kVectorized once + 5 policies x 4 widths.
  EXPECT_EQ(grid.size(), 22u);
  EXPECT_EQ(grid[0].policy, ExecPolicy::kSequential);
  EXPECT_EQ(grid[1].policy, ExecPolicy::kVectorized);
  size_t coroutine_points = 0;
  size_t vec_amac_points = 0;
  for (const GridPoint& p : grid) {
    EXPECT_NE(p.policy, ExecPolicy::kAdaptive);
    if (p.policy == ExecPolicy::kCoroutine) ++coroutine_points;
    if (p.policy == ExecPolicy::kVectorizedAmac) ++vec_amac_points;
  }
  EXPECT_EQ(coroutine_points, 4u);
  EXPECT_EQ(vec_amac_points, 4u);
}

TEST(CalibratorTest, CacheHitSkipsReMeasurement) {
  Calibrator calibrator;
  const auto sig = WorkloadSignature::Make("probe", 60000, 16);
  EXPECT_FALSE(calibrator.Lookup(sig).has_value());
  EXPECT_EQ(calibrator.misses(), 1u);

  CalibrationResult result;
  result.winner = GridPoint{ExecPolicy::kAmac, 16};
  result.winner_cycles_per_input = 3.5;
  result.survivors = {result.winner, GridPoint{ExecPolicy::kCoroutine, 16}};
  calibrator.Store(sig, result);
  EXPECT_EQ(calibrator.entries(), 1u);

  const auto cached = calibrator.Lookup(sig);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(calibrator.hits(), 1u);
  EXPECT_TRUE(cached->winner == result.winner);
  EXPECT_NEAR(cached->winner_cycles_per_input, 3.5, 1e-9);
  EXPECT_EQ(cached->survivors.size(), 2u);
}

TEST(CalibratorTest, InvalidSignatureNeverCachesOrHits) {
  Calibrator calibrator;
  const WorkloadSignature invalid;  // op_kind == 0
  CalibrationResult result;
  result.winner = GridPoint{ExecPolicy::kAmac, 8};
  calibrator.Store(invalid, result);
  EXPECT_EQ(calibrator.entries(), 0u);
  EXPECT_FALSE(calibrator.Lookup(invalid).has_value());
  EXPECT_EQ(calibrator.hits(), 0u);
}

TEST(AdaptiveMorselSizeTest, GivesTheTournamentEnoughMorsels) {
  const std::vector<GridPoint> grid = Calibrator::Grid();
  // A mid-size input must morselize into at least ~2x the grid, so one
  // full tournament fits with steady-state room to spare.
  for (const uint64_t inputs : {uint64_t{1} << 16, uint64_t{1} << 20}) {
    const uint64_t morsel = AdaptiveMorselSize(inputs, 4);
    ASSERT_GE(morsel, 1u);
    EXPECT_GE(inputs / morsel, 2 * grid.size()) << "inputs=" << inputs;
  }
}

TEST(AdaptiveMorselSizeTest, FloorAmortizesWidestWindow) {
  // Tiny inputs: morsel must still cover the widest in-flight window's
  // fill/drain ramp (floor >= 4 x max width), not shrink to 1.
  const uint64_t morsel = AdaptiveMorselSize(512, 8);
  EXPECT_GE(morsel, 4ull * 32);
  EXPECT_EQ(AdaptiveMorselSize(0, 4), 1u);
}

}  // namespace
}  // namespace amac
