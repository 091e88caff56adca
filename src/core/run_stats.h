// The unified result type of every runtime entry point.
//
// RunStats is what an Executor::Run call — and, since the serving layer, a
// QueryScheduler query — comes back as: engine scheduling counters merged
// across threads/morsels plus row accounting and timing.  It lives in its
// own header (below core/pipeline.h, above core/engine.h) so the server
// layer can return it without pulling in the pipeline machinery.
#pragma once

#include <cstdint>

#include "core/engine.h"
#include "core/scheduler.h"
#include "metrics/perf_counters.h"

namespace amac {

/// How a submitted run left the system.  Part of the unified result
/// vocabulary (next to RunStats) because every layer that consumes results
/// — the server's QueryStats, the open-loop bench, the load generator's
/// bookkeeping — needs to name it without pulling in the scheduler header.
/// Only kServed runs carry non-zero RunStats; a rejected or shed query
/// never executed a morsel, and its counters MUST stay zero so scheduler-
/// level sums remain "sum of served per-query stats" (the ServingStats
/// merge invariant pinned by tests/server/query_scheduler_test.cpp).
enum class QueryOutcome : uint8_t {
  kServed,    ///< admitted, executed, completed
  kRejected,  ///< refused at submit: the bounded admission queue was full
  kShed,      ///< dropped from the admission queue: deadline already blown
};

inline const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kServed: return "served";
    case QueryOutcome::kRejected: return "rejected";
    case QueryOutcome::kShed: return "shed";
  }
  return "?";
}

/// What the adaptive governor (src/adaptive/) did to this run when it was
/// executed with ExecPolicy::kAdaptive; inert (active == false) otherwise.
struct AdaptiveStats {
  bool active = false;     ///< the run was policy-governed
  bool cache_hit = false;  ///< calibration skipped via the signature cache
  /// The static schedule the run ended on (the calibrated winner, or the
  /// point a mid-query re-tune switched to).
  ExecPolicy chosen_policy = ExecPolicy::kAmac;
  uint32_t chosen_inflight = 0;
  /// Winner changes after the initial calibration (drift re-tunes and
  /// exploration upsets).
  uint32_t tuning_switches = 0;
  uint64_t calibration_morsels = 0;  ///< morsels spent measuring grid points
  uint64_t probe_morsels = 0;        ///< epsilon-greedy exploration morsels
};

/// Pipeline dimension of a physical plan shape: run the whole chain fused
/// through one stage machine, or split at the join into probe-materialize +
/// aggregate phases (fig12's two columns).
enum class PlanShape : uint8_t {
  kAuto,      ///< not pinned — the optimizer chooses
  kFused,     ///< single fused pipeline, no intermediate materialization
  kTwoPhase,  ///< materialize the join output, then aggregate it
};

inline const char* PlanShapeName(PlanShape s) {
  switch (s) {
    case PlanShape::kAuto: return "auto";
    case PlanShape::kFused: return "fused";
    case PlanShape::kTwoPhase: return "two-phase";
  }
  return "?";
}

/// What the plan optimizer (src/plan/) decided for this run; inert
/// (active == false) when the run was submitted below the plan layer.
struct PlanStats {
  bool active = false;  ///< the run went through PlanOptimizer
  PlanShape shape = PlanShape::kAuto;
  /// Physical alternatives the compiler enumerated for this plan.
  uint32_t candidates_considered = 0;
  /// The choice came from calibrator priors (true); false when the plan
  /// had one candidate or the run explored a shape that had no prior yet.
  bool from_priors = false;
  /// The cost model's prediction for the chosen shape over the full input
  /// (0 unless from_priors).
  double estimated_cost_cycles = 0;
  /// What the chosen shape actually cost end to end (build + run).
  double measured_cost_cycles = 0;
  /// Rows the pipeline kept per input row on this run (terminal rows /
  /// probe inputs), fed back into the shape priors so the fused-vs-two-
  /// phase costing tracks the match-rate regime; negative when the run
  /// could not observe it.
  double observed_selectivity = -1;
};

/// Write-path accounting for the concurrent structures (hashtable upsert /
/// erase, skiplist insert / erase).  Read-only runs leave it zeroed.
struct WriteStats {
  uint64_t inserts = 0;  ///< upserts that created a new key
  uint64_t updates = 0;  ///< upserts that overwrote an existing payload
  uint64_t erases = 0;   ///< deletes that found and removed their key

  uint64_t Total() const { return inserts + updates + erases; }

  void Merge(const WriteStats& other) {
    inserts += other.inserts;
    updates += other.updates;
    erases += other.erases;
  }
};

/// The one result type every Executor::Run returns, subsuming the historic
/// per-operator stats structs (the PR-3 JoinStats / GroupByStats /
/// SkipListStats shims, now removed).  All rate accessors return 0 (not
/// NaN/inf) on empty runs.
struct RunStats {
  EngineStats engine;     ///< scheduling counters, merged across threads
  uint64_t inputs = 0;    ///< rows entering the pipeline's source
  uint64_t outputs = 0;   ///< rows the terminal stage emitted into the sink
                          ///< (for aggregating terminals: the group count)
  uint64_t checksum = 0;  ///< order-independent checksum of emitted rows
  uint64_t morsels = 0;   ///< morsels claimed (0 on the 1-thread path)
  uint32_t threads = 0;
  uint64_t cycles = 0;    ///< execution span (see seconds), in TSC ticks
  /// Wall time of the measured execution region: the whole dispatch on the
  /// static-range path (the partitioned build), first-morsel-to-completion
  /// on the scheduler path.
  double seconds = 0;
  /// Wall time of the whole run including team dispatch (static-range
  /// path: equal to `seconds`) or submit-to-completion latency (scheduler
  /// path); always >= `seconds`.
  double dispatch_seconds = 0;
  /// Populated when the run executed under ExecPolicy::kAdaptive.
  AdaptiveStats adaptive;
  /// Populated when the run was submitted as a Plan (src/plan/).
  PlanStats plan;
  /// Populated when the operation mutated a concurrent structure (the
  /// write ops fold their per-op counts in after the run).
  WriteStats writes;
  /// Hardware counters over the measured region, sampled on the
  /// single-threaded static-policy path only (counters attach to the
  /// calling thread; pool threads would escape them).  perf.valid is false
  /// there too when the kernel forbids perf_event_open — check it before
  /// consuming, as the fig05/fig06 --json emitters do.
  PerfCounters::Sample perf;

  double CyclesPerInput() const {
    return inputs ? static_cast<double>(cycles) / static_cast<double>(inputs)
                  : 0;
  }
  /// Inputs per second over the measured region (paper Fig. 7/8 style).
  double Throughput() const {
    return seconds > 0 ? static_cast<double>(inputs) / seconds : 0;
  }
};

}  // namespace amac
