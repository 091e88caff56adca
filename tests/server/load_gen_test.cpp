#include "server/load_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace amac {
namespace {

// ---------------------------------------------------------------------------
// ArrivalProcess: pure-schedule tests, no wall clock anywhere.
// ---------------------------------------------------------------------------

/// Arrival times in [0, horizon).
std::vector<double> Arrivals(const ArrivalOptions& options, double horizon) {
  ArrivalProcess process(options);
  std::vector<double> times;
  for (;;) {
    const double t = process.Next();
    if (t >= horizon) break;
    times.push_back(t);
  }
  return times;
}

/// Counts per equal-width bin over [0, horizon).
std::vector<int> BinCounts(const std::vector<double>& times, double horizon,
                           int bins) {
  std::vector<int> counts(bins, 0);
  for (const double t : times) {
    ++counts[std::min(bins - 1, static_cast<int>(t / horizon * bins))];
  }
  return counts;
}

TEST(ArrivalProcessTest, TimesAreNonDecreasing) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    ArrivalOptions options;
    options.kind = kind;
    options.rate_qps = 500;
    ArrivalProcess process(options);
    double prev = 0;
    for (int i = 0; i < 5000; ++i) {
      const double t = process.Next();
      ASSERT_GE(t, prev) << ArrivalKindName(kind);
      prev = t;
    }
  }
}

TEST(ArrivalProcessTest, DeterministicForSeed) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBursty, ArrivalKind::kDiurnal}) {
    ArrivalOptions options;
    options.kind = kind;
    options.rate_qps = 200;
    options.seed = 77;
    ArrivalProcess a(options), b(options);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_EQ(a.Next(), b.Next()) << ArrivalKindName(kind);
    }
  }
}

TEST(ArrivalProcessTest, PoissonHitsMeanRate) {
  ArrivalOptions options;
  options.rate_qps = 1000;
  options.seed = 1;
  const double horizon = 50.0;  // expect 50000 arrivals, sd ~224
  const auto times = Arrivals(options, horizon);
  EXPECT_NEAR(static_cast<double>(times.size()),
              options.rate_qps * horizon, 4 * std::sqrt(50000.0));
}

TEST(ArrivalProcessTest, PoissonGapsAreExponential) {
  ArrivalOptions options;
  options.rate_qps = 100;
  options.seed = 2;
  const auto times = Arrivals(options, 200.0);
  ASSERT_GT(times.size(), 10000u);
  // Exponential(rate): mean 1/rate, CV^2 == 1.
  double sum = 0, sum2 = 0;
  double prev = 0;
  for (const double t : times) {
    const double gap = t - prev;
    sum += gap;
    sum2 += gap * gap;
    prev = t;
  }
  const double n = static_cast<double>(times.size());
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0 / options.rate_qps, 0.0005);
  EXPECT_NEAR(var / (mean * mean), 1.0, 0.1);  // CV^2
}

TEST(ArrivalProcessTest, BurstyPreservesMeanRate) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kBursty;
  options.rate_qps = 500;
  options.burst_multiplier = 4.0;
  options.burst_on_seconds = 0.05;
  options.burst_off_seconds = 0.20;
  options.seed = 3;
  ArrivalProcess process(options);
  EXPECT_NEAR(process.mean_rate_qps(), options.rate_qps, 1e-9);
  const double horizon = 100.0;
  const auto times = Arrivals(options, horizon);
  // Over 400 on-off cycles: long-run mean within a few percent.
  EXPECT_NEAR(static_cast<double>(times.size()),
              options.rate_qps * horizon, 0.06 * options.rate_qps * horizon);
}

TEST(ArrivalProcessTest, BurstyIsOverdispersedVsPoisson) {
  // Index of dispersion of bin counts: 1 for Poisson, > 1 when an on-off
  // modulation bunches arrivals.  Bins sized near the sojourn scale.
  const double horizon = 200.0;
  const int bins = 2000;  // 100 ms bins
  ArrivalOptions poisson;
  poisson.rate_qps = 200;
  poisson.seed = 4;
  ArrivalOptions bursty = poisson;
  bursty.kind = ArrivalKind::kBursty;
  bursty.burst_multiplier = 4.0;
  bursty.burst_on_seconds = 0.1;
  bursty.burst_off_seconds = 0.3;
  const auto dispersion = [&](const ArrivalOptions& options) {
    const auto counts =
        BinCounts(Arrivals(options, horizon), horizon, bins);
    double mean = 0;
    for (const int c : counts) mean += c;
    mean /= bins;
    double var = 0;
    for (const int c : counts) var += (c - mean) * (c - mean);
    var /= bins;
    return var / mean;
  };
  const double poisson_d = dispersion(poisson);
  const double bursty_d = dispersion(bursty);
  EXPECT_NEAR(poisson_d, 1.0, 0.25);
  EXPECT_GT(bursty_d, 2.0);
}

TEST(ArrivalProcessTest, BurstyClampReportsAchievedMean) {
  // A duty cycle that cannot absorb the burst (p_on * on_rate > rate)
  // clamps the off-rate at 0; mean_rate_qps() must report the achieved
  // mean, not the requested one.
  ArrivalOptions options;
  options.kind = ArrivalKind::kBursty;
  options.rate_qps = 100;
  options.burst_multiplier = 10.0;
  options.burst_on_seconds = 0.5;
  options.burst_off_seconds = 0.5;  // p_on = 0.5, on_rate = 1000 > 2*rate
  ArrivalProcess process(options);
  EXPECT_GT(process.mean_rate_qps(), options.rate_qps);  // clamped at 0 off
  EXPECT_NEAR(process.mean_rate_qps(), 500.0, 1e-9);     // p_on * on_rate
}

TEST(ArrivalProcessTest, DiurnalTracksTheSinusoid) {
  ArrivalOptions options;
  options.kind = ArrivalKind::kDiurnal;
  options.rate_qps = 1000;
  options.diurnal_amplitude = 0.8;
  options.diurnal_period_seconds = 1.0;
  options.seed = 5;
  const double horizon = 50.0;  // 50 periods
  const auto times = Arrivals(options, horizon);
  // Mean preserved: the sinusoid integrates to zero over whole periods.
  EXPECT_NEAR(static_cast<double>(times.size()),
              options.rate_qps * horizon, 0.05 * options.rate_qps * horizon);
  // Fold into one period, 4 phase bins: peak (phase ~0.25) vs trough
  // (phase ~0.75) must differ by roughly the amplitude ratio.
  double peak = 0, trough = 0;
  for (const double t : times) {
    const double phase = t - std::floor(t);
    if (phase >= 0.125 && phase < 0.375) ++peak;
    if (phase >= 0.625 && phase < 0.875) ++trough;
  }
  // Integrating rate*(1 + 0.8 sin) over those quarter-phases:
  // peak/trough = (1 + 0.8*0.9003) / (1 - 0.8*0.9003) ~= 6.1.
  EXPECT_GT(peak / trough, 3.0);
  EXPECT_LT(peak / trough, 12.0);
}

// ---------------------------------------------------------------------------
// LoadGenerator: the real-time driver (kept short and tolerant — this is
// the only wall-clock-dependent piece).
// ---------------------------------------------------------------------------

TEST(LoadGeneratorTest, DrivesTheScheduleOpenLoop) {
  LoadGenOptions options;
  options.arrival.rate_qps = 2000;
  options.arrival.seed = 6;
  options.duration_seconds = 0.25;
  uint64_t calls = 0;
  uint64_t last_index = 0;
  const LoadGenReport report = LoadGenerator::Run(
      options, [&](uint64_t index, const TenantMix& tenant) {
        EXPECT_EQ(index, calls);  // indexes arrive in order, 0-based
        EXPECT_EQ(tenant.tenant, 0u);  // default single-tenant mix
        last_index = index;
        ++calls;
      });
  EXPECT_EQ(report.submitted, calls);
  EXPECT_GT(report.submitted, 0u);
  // ~500 expected; huge tolerance, this only checks the loop terminates
  // near the configured duration and actually submits.
  EXPECT_NEAR(static_cast<double>(report.submitted), 500.0, 350.0);
  EXPECT_GE(report.wall_seconds, 0.2);
  EXPECT_GT(report.offered_qps, 0.0);
  (void)last_index;
}

TEST(LoadGeneratorTest, HonorsMaxQueries) {
  LoadGenOptions options;
  options.arrival.rate_qps = 100000;
  options.duration_seconds = 10.0;  // would be 1M queries without the cap
  options.max_queries = 200;
  uint64_t calls = 0;
  const LoadGenReport report =
      LoadGenerator::Run(options, [&](uint64_t, const TenantMix&) {
        ++calls;
      });
  EXPECT_EQ(report.submitted, 200u);
  EXPECT_EQ(calls, 200u);
}

TEST(LoadGeneratorTest, TenantMixFollowsShares) {
  LoadGenOptions options;
  options.arrival.rate_qps = 50000;
  options.duration_seconds = 1.0;
  options.max_queries = 4000;
  options.tenants = {TenantMix{1, 3.0}, TenantMix{2, 1.0}};
  options.mix_seed = 7;
  uint64_t tenant1 = 0, tenant2 = 0;
  LoadGenerator::Run(options, [&](uint64_t, const TenantMix& tenant) {
    if (tenant.tenant == 1) {
      EXPECT_EQ(tenant.share, 3.0);
      ++tenant1;
    } else {
      EXPECT_EQ(tenant.tenant, 2u);
      EXPECT_EQ(tenant.share, 1.0);
      ++tenant2;
    }
  });
  ASSERT_EQ(tenant1 + tenant2, 4000u);
  // 3:1 split, sd of tenant1 ~ sqrt(4000 * .75 * .25) ~ 27; allow 6 sigma.
  EXPECT_NEAR(static_cast<double>(tenant1), 3000.0, 165.0);
}

}  // namespace
}  // namespace amac
