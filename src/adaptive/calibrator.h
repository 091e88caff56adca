// Online calibration of the ExecPolicy × inflight grid.
//
// The paper's sensitivity results (Fig. 6, our fig06 bench) show that the
// best memory-latency-hiding schedule and its in-flight width M depend on
// the data structure, hit rate, skew, and contention — there is no single
// right (policy, M).  The calibrator measures instead of guessing:
//
//   * `CalibrationEpisode` is a successive-halving tournament over the
//     candidate grid, fed one morsel of the REAL query at a time (sampling
//     is just the first few MorselCursor claims, so calibration morsels do
//     useful work — they merely run under the schedule being auditioned).
//     Each round every surviving grid point gets `measure_morsels` morsels;
//     the slower half is eliminated; the last survivor is the winner and
//     its measured cycles-per-input becomes the drift baseline.
//   * `Calibrator` caches finished episodes keyed by WorkloadSignature, so
//     a repeated query shape skips straight to the winner (pinned by the
//     tests/adaptive cache-hit suite), and owns the grid construction.
//     Every entry is a measurement; the plan cost model's peek evicts an
//     entry whose cardinality bucket no longer matches the submitted
//     relation.
//
// The governor (adaptive/governor.h) drives episodes per query and layers
// the epsilon-greedy exploration / drift re-tuning loop on top.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "adaptive/signature.h"
#include "core/scheduler.h"

namespace amac {

/// One candidate configuration: a static schedule plus its in-flight width
/// (the paper's M; ignored by kSequential).
struct GridPoint {
  ExecPolicy policy = ExecPolicy::kAmac;
  uint32_t inflight = 10;

  /// The SchedulerParams this point runs with; `stages` (the paper's N)
  /// stays the caller's — the grid only searches policy × M.
  SchedulerParams Params(uint32_t stages) const {
    return SchedulerParams{inflight, std::max(1u, stages), 0};
  }
};

inline bool operator==(const GridPoint& a, const GridPoint& b) {
  return a.policy == b.policy && a.inflight == b.inflight;
}

/// In-flight widths crossed with every non-sequential static policy in the
/// calibration grid (kSequential contributes a single grid point).
inline constexpr uint32_t kInflightGrid[] = {4, 10, 16, 32};

/// Tuning knobs of the adaptive subsystem (ExecConfig::adaptive and
/// QueryOptions::adaptive).  Defaults are deliberately conservative: light
/// exploration and a drift threshold well clear of morsel-to-morsel noise,
/// so "pick for me" costs a few percent of steady-state throughput at most.
struct AdaptiveConfig {
  /// Probability that a steady-state morsel explores a non-winner survivor
  /// (epsilon-greedy, round-robin over the explore set); 0 disables
  /// exploration.
  double epsilon = 0.0625;
  /// Re-calibrate when the winner's EWMA throughput falls below this
  /// fraction of its calibrated baseline (cycles/input rises above
  /// baseline / drift_ratio).  0 disables drift re-tuning.
  double drift_ratio = 0.5;
};

/// A finished calibration: the winner, its measured cost, and the
/// runner-up set kept for exploration probes and drift re-tunes.
struct CalibrationResult {
  GridPoint winner;
  double winner_cycles_per_input = 0;
  /// First-halving survivors (best half of the grid), winner included —
  /// the candidate set of later exploration and re-tuning.
  std::vector<GridPoint> survivors;
  /// Rows the downstream pipeline kept per input row, observed on the plan
  /// run that stored this prior (plan costing); negative when the run had
  /// no filtering stage or nothing was observed.
  double observed_selectivity = -1;
};

/// Successive-halving tournament state machine, fed morsels by the caller.
/// Thread-compatible, not thread-safe — the governor serializes access.
class CalibrationEpisode {
 public:
  CalibrationEpisode(std::vector<GridPoint> candidates,
                     uint32_t measure_morsels);

  /// What the next morsel should run.  `measured` morsels count toward the
  /// current round's quota; once the round is fully assigned but not yet
  /// fully reported, extra morsels ride on the best point seen so far
  /// (measured == false) instead of blocking.
  struct Assignment {
    size_t index = 0;  ///< into candidates()
    bool measured = false;
  };
  Assignment Next();

  /// Fold one measured morsel's cost into candidate `index`.  Completes
  /// rounds and halves the field; after the last halving done() is true.
  void Report(size_t index, uint64_t inputs, uint64_t cycles);

  bool done() const { return done_; }
  /// Best candidate by data so far — the winner once done(), a fallback
  /// choice when the query ran out of morsels mid-episode.
  size_t best() const;
  double BestCyclesPerInput() const;
  size_t size() const { return candidates_.size(); }
  const GridPoint& point(size_t index) const {
    return candidates_[index].point;
  }
  /// Candidates that survived the first halving (or the full field before
  /// it), best-first.
  std::vector<GridPoint> Survivors() const;
  uint64_t measured_morsels() const { return measured_morsels_; }

 private:
  struct Candidate {
    GridPoint point;
    uint64_t inputs = 0;  ///< cumulative across rounds
    uint64_t cycles = 0;
    uint32_t assigned = 0;  ///< this round
    uint32_t reported = 0;  ///< this round
    bool alive = true;
  };

  double CyclesPerInput(const Candidate& c) const;
  void MaybeFinishRound();

  std::vector<Candidate> candidates_;
  uint32_t quota_;  ///< measurement morsels per survivor per round
  uint64_t measured_morsels_ = 0;
  bool first_halving_done_ = false;
  std::vector<size_t> first_survivors_;
  bool done_ = false;
};

/// Morsel size for governed queries.  The default ResolveMorselSize floor
/// (1024 inputs) can leave a small query with fewer morsels than the grid
/// has points; adaptive queries instead target enough claims for the
/// tournament plus steady-state interleaving, with a floor that still
/// amortizes the widest in-flight window of Calibrator::Grid().
uint64_t AdaptiveMorselSize(uint64_t num_inputs, uint32_t slots);

/// Shared calibration cache + grid construction.  Thread-safe; one lives
/// in every QueryScheduler (and therefore in every Executor), so repeated
/// query shapes — the serving workload's common case — calibrate once.
class Calibrator {
 public:
  Calibrator() = default;

  /// The candidate grid: kSequential once, kVectorized once, every other
  /// static policy crossed with kInflightGrid.
  static std::vector<GridPoint> Grid();

  /// Cached result for `sig`, counting a hit or miss; invalid signatures
  /// always miss (and are never stored).
  std::optional<CalibrationResult> Lookup(const WorkloadSignature& sig);

  /// Record (or overwrite, after a re-tune) the calibration for `sig`.
  void Store(const WorkloadSignature& sig, const CalibrationResult& result);

  /// The cached result for `sig`, or nullopt when unknown.  Unlike Lookup
  /// this counts neither a hit nor a miss: the plan cost model peeks at the
  /// stored cycles-per-input and observed selectivity without claiming the
  /// cache's statistics.  Non-zero `submitted_inputs` validates the entry
  /// against the relation actually submitted: a plan shape's signature
  /// reused across relation sizes (the stale-prior hazard — the key alone
  /// cannot catch it) is evicted when its stored cardinality bucket no
  /// longer matches.
  std::optional<CalibrationResult> PeekResult(
      const WorkloadSignature& sig, uint64_t submitted_inputs = 0) const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t entries() const;
  /// Entries dropped by staleness validation (a cardinality-bucket
  /// mismatch against the submitted relation).
  uint64_t stale_evictions() const;

  /// One cached calibration, keyed by its WorkloadSignature::Key().
  struct Entry {
    uint64_t signature_key = 0;
    CalibrationResult result;
  };
  /// Snapshot of the cache, ascending by key — what the serving layer's
  /// capacity planner consumes (winner cycles-per-input -> E[S] ->
  /// sustainable QPS) without holding the calibrator lock.
  std::vector<Entry> Entries() const;

 private:
  struct CachedEntry {
    WorkloadSignature sig;  ///< as stored — bucket validated on reuse
    CalibrationResult result;
  };

  mutable std::mutex mu_;
  mutable std::unordered_map<uint64_t, CachedEntry> cache_;  ///< by sig.Key()
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  mutable uint64_t stale_evictions_ = 0;
};

}  // namespace amac
