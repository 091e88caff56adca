// Per-query policy governor: the online loop that turns "measure once"
// calibration into "stay right as conditions change".
//
// One QueryGovernor steers one kAdaptive query.  The morsel runner
// (QueryScheduler::SubmitOp) asks it what schedule to run before every
// morsel and reports the measured (inputs, cycles) afterwards:
//
//   phase kCalibrating — drive a CalibrationEpisode over the candidate
//     grid (skipped entirely on a calibration-cache hit); the winner's
//     measured cycles-per-input becomes the drift baseline and the result
//     is stored back into the shared Calibrator under the query's
//     WorkloadSignature.
//   phase kRunning — run the winner, keeping a per-morsel
//     cycles-per-input EWMA.  With probability epsilon a morsel instead
//     probes one of the other first-halving survivors (epsilon-greedy);
//     a probe that beats the winner by kSwitchMargin usurps it.  When the
//     winner's EWMA drifts past drift_ratio of its calibrated baseline
//     (skew moved, contention appeared, the cached winner no longer
//     fits), the governor re-enters calibration over the survivor set — a
//     successive-halving re-tune mid-query.
//
// The objective is wall-clock cycles per input, nothing else.  Only
// epsilon and drift_ratio are settable (AdaptiveConfig); the rest of the
// loop's constants live in governor.cpp.  All decisions come from a
// private seeded common/rng.h stream, so a given sequence of
// Acquire()/Report() calls is fully deterministic (pinned by
// tests/adaptive/governor_test.cpp).  Thread-safe at morsel granularity:
// a mutex guards the whole state machine, which is negligible against the
// 1k+-input morsels it decides for.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "adaptive/calibrator.h"
#include "adaptive/signature.h"
#include "common/rng.h"
#include "core/run_stats.h"

namespace amac {

/// Seed of the governor's rng stream in production.
inline constexpr uint64_t kGovernorSeed = 0xada9711feed5eedull;

class QueryGovernor {
 public:
  /// `calibrator` (nullable) supplies the cross-query cache; `stages` is
  /// the caller's pipeline-stage knob, passed through to every grid point.
  /// `seed` picks the rng stream; tests vary it.
  QueryGovernor(const AdaptiveConfig& config, Calibrator* calibrator,
                const WorkloadSignature& signature, uint32_t stages,
                uint64_t seed = kGovernorSeed);

  /// The schedule the next morsel should run.  `token` must be handed back
  /// to Report() with the morsel's measurements.
  struct Choice {
    ExecPolicy policy;
    SchedulerParams params;
    uint32_t token;  ///< opaque: grid index + measurement/probe flags
  };
  Choice Acquire();

  /// Fold one executed morsel's cost back into the decision state.
  void Report(const Choice& choice, uint64_t inputs, uint64_t cycles);

  /// Final accounting (RunStats::adaptive); called once when the query's
  /// last morsel drained.  A query that drained mid-calibration banks its
  /// partial ranking into the calibrator, so the next same-shaped query
  /// does not start from scratch.
  void Finalize(AdaptiveStats* out);

  /// The current winner (observability/tests).
  GridPoint current() const;
  uint32_t tuning_switches() const;

 private:
  enum class Phase { kCalibrating, kRunning };

  // Token encoding: low 16 bits candidate index, bit 16 measured, bit 17
  // probe, bits 18+ the low 14 bits of the epoch (reports carrying a
  // superseded epoch are dropped: their index means nothing in the new
  // phase; 14 bits of wraparound far outlasts any plausible retune rate).
  static constexpr uint32_t kMeasuredBit = 1u << 16;
  static constexpr uint32_t kProbeBit = 1u << 17;
  static constexpr uint32_t kEpochShift = 18;
  static constexpr uint32_t kEpochMask = (1u << (32 - kEpochShift)) - 1;

  Choice MakeChoice(const GridPoint& point, uint32_t token) const;
  void FinishCalibrationLocked();
  void EnterRetuneLocked();
  /// Install `winner` over `survivors` as the steady state — explore set
  /// (anchor guaranteed, see EnsureAnchorLocked), EWMAs, drift baseline —
  /// shared by the cache-hit constructor path and FinishCalibrationLocked.
  void AdoptWinnerLocked(const GridPoint& winner, double cpi,
                         std::vector<GridPoint> survivors);
  /// Mirror the current steady state into the calibration cache.
  void StoreResultLocked();
  /// Keep the no-prefetch anchor (kSequential) in the explore set: it is
  /// the qualitatively different schedule — calibration on cold caches
  /// favours prefetchers, and warm cache-resident workloads must be able
  /// to flip back to Baseline through exploration.
  void EnsureAnchorLocked();

  const AdaptiveConfig config_;
  Calibrator* const calibrator_;  ///< nullable
  const WorkloadSignature signature_;
  const uint32_t stages_;

  mutable std::mutex mu_;
  Phase phase_;
  uint32_t epoch_ = 0;
  std::unique_ptr<CalibrationEpisode> episode_;  ///< live while calibrating
  std::vector<GridPoint> survivors_;             ///< exploration candidates
  std::vector<double> survivor_ewma_;            ///< cpi EWMA per survivor
  size_t winner_ = 0;                            ///< into survivors_
  size_t probe_cursor_ = 0;  ///< round-robin over the explore set
  double baseline_cpi_ = 0;  ///< calibrated winner cycles/input
  uint32_t drift_strikes_ = 0;  ///< consecutive over-threshold morsels
  Rng rng_;

  bool cache_hit_ = false;
  bool retuning_ = false;     ///< the live episode is a drift re-tune
  GridPoint retune_from_;     ///< winner before the re-tune started
  uint32_t tuning_switches_ = 0;
  uint64_t calibration_morsels_ = 0;
  uint64_t probe_morsels_ = 0;
};

}  // namespace amac
