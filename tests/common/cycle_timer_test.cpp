#include "common/cycle_timer.h"

#include <gtest/gtest.h>

#include <thread>

namespace amac {
namespace {

TEST(CycleTimerTest, TscIsMonotonicNonDecreasing) {
  uint64_t prev = ReadTsc();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = ReadTsc();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(CycleTimerTest, ElapsedGrowsWithWork) {
  CycleTimer timer;
  const uint64_t e1 = timer.Elapsed();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const uint64_t e2 = timer.Elapsed();
  EXPECT_GT(e2, e1);
}

TEST(CycleTimerTest, RestartResetsOrigin) {
  CycleTimer timer;
  volatile uint64_t sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  const uint64_t before = timer.Elapsed();
  timer.Restart();
  EXPECT_LT(timer.Elapsed(), before);
}

TEST(WallTimerTest, MeasuresSleep) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double secs = timer.ElapsedSeconds();
  EXPECT_GE(secs, 0.015);
  EXPECT_LT(secs, 2.0);
}

TEST(EstimateTscHzTest, PlausibleFrequency) {
  const double hz = EstimateTscHz();
  EXPECT_GT(hz, 1e8);   // > 100 MHz
  EXPECT_LT(hz, 1e11);  // < 100 GHz
}

}  // namespace
}  // namespace amac
