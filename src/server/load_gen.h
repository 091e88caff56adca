// Open-loop load generation for the serving layer.
//
// The closed-loop clients in bench/ext_serving.cpp cannot overload the
// scheduler: each client waits for its previous query, so offered load
// self-throttles to completion rate and the queueing knee never shows.
// An OPEN-loop generator submits on an arrival schedule regardless of
// completions — push it past capacity and the admission queue grows
// without bound, which is exactly the regime SLO-aware admission
// (QuerySchedulerOptions::max_pending / shed_expired) exists for.
//
// Two layers, split so tests never need a wall clock:
//
//   * ArrivalProcess — a PURE schedule generator: Next() returns the
//     absolute arrival time (seconds since the stream start) of the next
//     query under a Poisson, bursty (on-off MMPP), or diurnal
//     (sinusoidally modulated Poisson) process.  Deterministic for a
//     fixed seed; tests/server/load_gen_test.cpp pins rates, burst
//     dispersion, and the diurnal shape on the schedule alone.
//   * LoadGenerator::Run — the real-time driver: sleeps until each
//     scheduled arrival, picks a tenant from the configured mix, and
//     invokes the submit callback.  The callback must not block (submit
//     to a bounded-pending scheduler returns immediately, possibly as a
//     rejection) or the generator stops being open-loop; Run reports the
//     worst scheduling lag so benches can verify the generator kept up.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace amac {

/// The arrival processes the generator can drive.
enum class ArrivalKind : uint8_t {
  kPoisson,  ///< memoryless, constant rate — the M/G/c textbook case
  kBursty,   ///< on-off MMPP: rate alternates between a burst rate and a
             ///< trough rate with exponential sojourns (same long-run mean)
  kDiurnal,  ///< nonhomogeneous Poisson, rate modulated by a sinusoid
};

inline const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

struct ArrivalOptions {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Long-run mean arrival rate (queries per second) for ALL kinds: bursty
  /// and diurnal modulate around this mean, they do not change it.
  double rate_qps = 100;
  // Bursty (on-off MMPP).  The on-state rate is rate_qps *
  // burst_multiplier; the off-state rate is derived so the long-run mean
  // stays rate_qps (clamped at 0 when the duty cycle cannot absorb the
  // burst — mean_rate_qps() reports the achieved mean).
  double burst_multiplier = 4.0;
  double burst_on_seconds = 0.05;   ///< mean sojourn in the burst state
  double burst_off_seconds = 0.20;  ///< mean sojourn in the trough state
  // Diurnal: rate(t) = rate_qps * (1 + amplitude * sin(2*pi*t / period)).
  double diurnal_amplitude = 0.8;  ///< in [0, 1]
  double diurnal_period_seconds = 1.0;
  uint64_t seed = 0xa2217a10ad5eedull;
};

/// Pure arrival-schedule generator: no clocks, no threads, deterministic
/// per seed.  Next() is strictly about WHEN; who/what arrives is the
/// caller's business.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ArrivalOptions& options);

  /// Absolute time (seconds since the stream start) of the next arrival;
  /// non-decreasing across calls.
  double Next();

  /// The achieved long-run mean rate (== rate_qps unless the bursty
  /// off-rate clamped at zero).
  double mean_rate_qps() const { return mean_rate_qps_; }

  const ArrivalOptions& options() const { return options_; }

 private:
  double Exponential(double rate);

  ArrivalOptions options_;
  Rng rng_;
  double now_ = 0;
  double mean_rate_qps_ = 0;
  // Bursty state.
  bool burst_on_ = false;
  double switch_at_ = 0;  ///< absolute time of the next state flip
  double on_rate_ = 0;
  double off_rate_ = 0;
  // Diurnal state.
  double rate_max_ = 0;  ///< thinning envelope: rate_qps * (1 + amplitude)
};

/// One entry of the per-tenant workload mix.
struct TenantMix {
  uint32_t tenant = 0;
  double share = 1.0;  ///< probability weight of an arrival being this tenant
};

struct LoadGenOptions {
  ArrivalOptions arrival;
  double duration_seconds = 1.0;
  /// Hard cap on submissions regardless of duration (0 = no cap); a
  /// backstop so a misconfigured rate cannot flood a test run.
  uint64_t max_queries = 0;
  /// Tenant mix; empty means a single tenant {0, 1.0}.
  std::vector<TenantMix> tenants;
  uint64_t mix_seed = 0x717e9a9731a45eedull;
};

struct LoadGenReport {
  uint64_t submitted = 0;
  double wall_seconds = 0;  ///< total driving time
  double offered_qps = 0;   ///< submitted / wall_seconds
  /// Worst (actual submit instant - scheduled arrival): how far the driver
  /// fell behind its own schedule.  A lag comparable to the mean gap means
  /// the submit callback blocked and the run was not truly open-loop.
  double max_lag_seconds = 0;
};

/// Real-time open-loop driver.
class LoadGenerator {
 public:
  /// Called once per arrival, on the driving thread.  MUST NOT block.
  using SubmitFn = std::function<void(uint64_t index, const TenantMix&)>;

  /// Drive `submit` on the caller's thread until duration (or max_queries)
  /// is reached.  Completion of the submitted work is not awaited — that
  /// is the point.
  static LoadGenReport Run(const LoadGenOptions& options,
                           const SubmitFn& submit);
};

}  // namespace amac
