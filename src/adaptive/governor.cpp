#include "adaptive/governor.h"

#include <algorithm>

#include "common/macros.h"

namespace amac {

namespace {

/// Measurement morsels per surviving grid point per halving round.
constexpr uint32_t kMeasureMorsels = 1;
/// Weight of the newest morsel in the per-point cycles-per-input EWMA.
constexpr double kEwmaAlpha = 0.25;
/// Consecutive over-threshold winner morsels required before a drift
/// re-tune fires (a single preempted/cold morsel is noise, a streak is a
/// regime change).
constexpr uint32_t kDriftPatience = 3;
/// An exploration probe must beat the winner by this cycles-per-input
/// factor (probe_cpi < margin * winner_cpi) to usurp it.
constexpr double kSwitchMargin = 0.9;
/// A steady-state morsel folds into its point's EWMA at no more than this
/// multiple of the EWMA.  Morsel costs are heavy-tailed on skewed data (a
/// morsel that holds a probe into a hot key's chain costs several times
/// its neighbours under any schedule); one such morsel would otherwise
/// inflate the winner's EWMA enough for the next probe of a slower point
/// to usurp it.  A real regime change still raises the EWMA by a quarter
/// per morsel (kEwmaAlpha), so drift is still detected.
constexpr double kMorselClip = 2.0;

}  // namespace

QueryGovernor::QueryGovernor(const AdaptiveConfig& config,
                             Calibrator* calibrator,
                             const WorkloadSignature& signature,
                             uint32_t stages, uint64_t seed)
    : config_(config),
      calibrator_(calibrator),
      signature_(signature),
      stages_(std::max(1u, stages)),
      rng_(seed) {
  if (calibrator_ != nullptr) {
    if (const auto cached = calibrator_->Lookup(signature_)) {
      cache_hit_ = true;
      AdoptWinnerLocked(cached->winner, cached->winner_cycles_per_input,
                        cached->survivors);
      return;
    }
  }
  episode_ = std::make_unique<CalibrationEpisode>(Calibrator::Grid(),
                                                  kMeasureMorsels);
  phase_ = Phase::kCalibrating;
}

QueryGovernor::Choice QueryGovernor::MakeChoice(const GridPoint& point,
                                                uint32_t token) const {
  return Choice{point.policy, point.Params(stages_), token};
}

QueryGovernor::Choice QueryGovernor::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t epoch_bits = (epoch_ & kEpochMask) << kEpochShift;
  if (phase_ == Phase::kCalibrating) {
    const CalibrationEpisode::Assignment a = episode_->Next();
    uint32_t token = static_cast<uint32_t>(a.index) | epoch_bits;
    if (a.measured) {
      token |= kMeasuredBit;
      ++calibration_morsels_;
    }
    return MakeChoice(episode_->point(a.index), token);
  }
  if (config_.epsilon > 0 && survivors_.size() > 1 &&
      rng_.NextDouble() < config_.epsilon) {
    // Round-robin over the explore set (not uniform-random): every
    // runner-up gets sampled within |explore| probes, so a mis-calibrated
    // winner is corrected in bounded time.
    probe_cursor_ = (probe_cursor_ + 1) % survivors_.size();
    if (probe_cursor_ == winner_) {
      probe_cursor_ = (probe_cursor_ + 1) % survivors_.size();
    }
    const size_t probe = probe_cursor_;
    ++probe_morsels_;
    return MakeChoice(survivors_[probe], static_cast<uint32_t>(probe) |
                                             kProbeBit | epoch_bits);
  }
  return MakeChoice(survivors_[winner_],
                    static_cast<uint32_t>(winner_) | epoch_bits);
}

void QueryGovernor::Report(const Choice& choice, uint64_t inputs,
                           uint64_t cycles) {
  if (inputs == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if ((choice.token >> kEpochShift) != (epoch_ & kEpochMask)) {
    return;  // superseded episode
  }
  const size_t index = choice.token & 0xffffu;
  if (phase_ == Phase::kCalibrating) {
    // Only quota morsels advance the tournament; ride-along morsels (round
    // fully assigned, reports pending) carry no extra signal worth the
    // round-accounting complexity.
    if (choice.token & kMeasuredBit) {
      episode_->Report(index, inputs, cycles);
      if (episode_->done()) FinishCalibrationLocked();
    }
    return;
  }
  if (index >= survivors_.size()) return;
  const double cpi =
      static_cast<double>(cycles) / static_cast<double>(inputs);
  double& ewma = survivor_ewma_[index];
  ewma = ewma <= 0 ? cpi
                   : kEwmaAlpha * std::min(cpi, kMorselClip * ewma) +
                         (1 - kEwmaAlpha) * ewma;
  if (index == winner_) {
    // Drift: observed throughput fell below drift_ratio of the calibrated
    // baseline — the winner no longer fits the data it is seeing.  A
    // patience streak filters one-off noise (a preempted morsel balloons
    // its cycle count without the workload having changed).
    if (config_.drift_ratio > 0 && baseline_cpi_ > 0 &&
        ewma * config_.drift_ratio > baseline_cpi_) {
      if (++drift_strikes_ >= kDriftPatience) {
        drift_strikes_ = 0;
        EnterRetuneLocked();
      }
    } else {
      drift_strikes_ = 0;
    }
    return;
  }
  // Exploration probe: usurp the winner only on a clear margin.  The
  // probe bit matters: a late report for a just-deposed winner (another
  // slot's probe usurped while this morsel ran) must only feed that
  // point's EWMA, not bounce the winner back on one sample.
  if ((choice.token & kProbeBit) != 0 &&
      ewma < kSwitchMargin * survivor_ewma_[winner_]) {
    winner_ = index;
    baseline_cpi_ = ewma;
    drift_strikes_ = 0;  // strikes against the old winner don't carry over
    ++tuning_switches_;
    StoreResultLocked();
  }
}

void QueryGovernor::AdoptWinnerLocked(const GridPoint& winner, double cpi,
                                      std::vector<GridPoint> survivors) {
  survivors_ = std::move(survivors);
  auto it = std::find(survivors_.begin(), survivors_.end(), winner);
  if (it == survivors_.end()) {
    survivors_.insert(survivors_.begin(), winner);
    it = survivors_.begin();
  }
  winner_ = static_cast<size_t>(it - survivors_.begin());
  baseline_cpi_ = cpi;
  EnsureAnchorLocked();
  survivor_ewma_.assign(survivors_.size(), 0);
  survivor_ewma_[winner_] = baseline_cpi_;
  drift_strikes_ = 0;
  phase_ = Phase::kRunning;
}

void QueryGovernor::StoreResultLocked() {
  if (calibrator_ == nullptr) return;
  CalibrationResult result;
  result.winner = survivors_[winner_];
  result.winner_cycles_per_input = baseline_cpi_;
  result.survivors = survivors_;
  calibrator_->Store(signature_, result);
}

void QueryGovernor::FinishCalibrationLocked() {
  const GridPoint winner_point = episode_->point(episode_->best());
  const bool retune = retuning_;
  if (retune && !(winner_point == retune_from_)) ++tuning_switches_;
  retuning_ = false;
  // A re-tune only re-picks the winner; it keeps the explore set.  Taking
  // its own first-halving survivors instead would halve that set on every
  // re-tune until one point is left, which exploration can never leave
  // and the calibration cache then hands to every later query.
  AdoptWinnerLocked(winner_point, episode_->BestCyclesPerInput(),
                    retune ? survivors_ : episode_->Survivors());
  episode_.reset();
  ++epoch_;
  StoreResultLocked();
}

void QueryGovernor::EnsureAnchorLocked() {
  const GridPoint anchor{ExecPolicy::kSequential, 1};
  if (std::find(survivors_.begin(), survivors_.end(), anchor) ==
      survivors_.end()) {
    survivors_.push_back(anchor);
  }
}

void QueryGovernor::EnterRetuneLocked() {
  retuning_ = true;
  retune_from_ = survivors_[winner_];
  episode_ =
      std::make_unique<CalibrationEpisode>(survivors_, kMeasureMorsels);
  phase_ = Phase::kCalibrating;
  ++epoch_;
}

GridPoint QueryGovernor::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == Phase::kCalibrating) {
    return episode_->point(episode_->best());
  }
  return survivors_[winner_];
}

uint32_t QueryGovernor::tuning_switches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tuning_switches_;
}

void QueryGovernor::Finalize(AdaptiveStats* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == Phase::kCalibrating && !retuning_ && calibrator_ != nullptr &&
      episode_->BestCyclesPerInput() > 0) {
    // The query drained before the tournament finished (few morsels, or a
    // straggler measurement outrun by ride-along morsels).  Bank the
    // partial ranking: a best-so-far winner beats re-measuring from
    // scratch on the next query of this shape, and steady-state
    // exploration corrects a noisy pick cheaply.
    std::vector<GridPoint> survivors = episode_->Survivors();
    survivors.resize(std::max<size_t>(1, (survivors.size() + 1) / 2));
    calibrator_->Store(
        signature_,
        CalibrationResult{episode_->point(episode_->best()),
                          episode_->BestCyclesPerInput(), survivors});
  }
  out->active = true;
  out->cache_hit = cache_hit_;
  const GridPoint chosen =
      phase_ == Phase::kCalibrating
          ? episode_->point(episode_->best())
          : survivors_[winner_];
  out->chosen_policy = chosen.policy;
  out->chosen_inflight = chosen.inflight;
  out->tuning_switches = tuning_switches_;
  out->calibration_morsels = calibration_morsels_;
  out->probe_morsels = probe_morsels_;
}

}  // namespace amac
