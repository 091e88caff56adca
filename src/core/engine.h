// Generic asynchronous-memory-access-chaining engine.
//
// The paper's §6 ("AMAC automation") calls for "a generalized software model
// and framework for AMAC-style execution" so that developers do not hand
// write state save/restore.  This header is that framework: a user supplies
// an *operation* type describing one lookup as a resumable stage machine,
// and the engine runs any number of inputs through it with the AMAC
// schedule — or, for comparison, with the GP / SPP / sequential schedules,
// since all four only differ in *when* each lookup's next stage runs.
//
// Operation concept:
//
//   struct MyOp {
//     struct State { ... };                  // full per-lookup state
//     void Start(State& st, uint64_t idx);   // stage 0: init + 1st prefetch
//     StepStatus Step(State& st);            // run the current stage
//   };
//
// Step() executes the stage the state says it is in and returns:
//   kParked : a prefetch was issued; re-run Step when the data likely
//             arrived (the engine revisits the slot after touring the
//             other in-flight lookups).
//   kRetry  : a latch/dependency was busy; semantically identical to
//             kParked for scheduling, but engines/statistics distinguish
//             it (GP/SPP-style schedules must spin on it instead).
//   kDone   : the lookup finished.
//
// The engine owns no memory semantics: operations issue their own
// prefetches (common/prefetch.h) and manage their own latches, exactly as
// a hand-written kernel would.  The one exception is RunSequential, which
// switches the op's prefetches off (NoPrefetchScope) so it is the paper's
// plain Baseline loop.  Tests check every schedule against no-prefetch
// oracle loops; the ablation bench measures the abstraction cost against
// the hand-written Listing-1 AMAC probe and Baseline loops.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/prefetch.h"

namespace amac {

enum class StepStatus : uint8_t {
  kParked,
  kRetry,
  kDone,
};

/// Scheduling counters (optional observability for tests/ablations).
struct EngineStats {
  uint64_t lookups = 0;
  uint64_t steps = 0;    ///< total Step() invocations
  uint64_t parks = 0;    ///< steps returning kParked
  uint64_t retries = 0;  ///< steps returning kRetry
  uint64_t noops = 0;    ///< GP/SPP only: stage slots burnt on finished lookups
  /// Lookups a vectorized policy silently ran scalar because the operation
  /// exposes no vector interface (Run()'s kVectorized/kVectorizedAmac
  /// fallback).  Zero on genuinely vectorized runs; lets JSON emitters stop
  /// implying vector execution where none happened.
  uint64_t vec_fallbacks = 0;

  double StepsPerLookup() const {
    return lookups ? static_cast<double>(steps) / static_cast<double>(lookups)
                   : 0;
  }

  /// Fold another engine's counters in (per-thread stats -> run totals).
  void Merge(const EngineStats& other) {
    lookups += other.lookups;
    steps += other.steps;
    parks += other.parks;
    retries += other.retries;
    noops += other.noops;
    vec_fallbacks += other.vec_fallbacks;
  }
};

/// AMAC schedule: W independent slots, rolling cursor, terminal/initial
/// merge (a finishing lookup immediately starts the next input).
template <typename Op>
EngineStats RunAmac(Op& op, uint64_t num_inputs, uint32_t num_inflight) {
  AMAC_CHECK(num_inflight >= 1);
  EngineStats stats;
  stats.lookups = num_inputs;
  if (num_inputs == 0) return stats;

  struct Slot {
    typename Op::State state;
    bool active;
  };
  std::vector<Slot> slots(num_inflight);
  uint64_t next_input = 0;
  uint32_t num_active = 0;
  for (uint32_t k = 0; k < num_inflight; ++k) {
    if (next_input < num_inputs) {
      op.Start(slots[k].state, next_input++);
      slots[k].active = true;
      ++num_active;
    } else {
      slots[k].active = false;
    }
  }

  uint32_t k = 0;
  while (num_active > 0) {
    Slot& slot = slots[k];
    if (slot.active) {
      ++stats.steps;
      switch (op.Step(slot.state)) {
        case StepStatus::kParked:
          ++stats.parks;
          break;
        case StepStatus::kRetry:
          ++stats.retries;
          break;
        case StepStatus::kDone:
          if (next_input < num_inputs) {
            op.Start(slot.state, next_input++);
          } else {
            slot.active = false;
            --num_active;
          }
          break;
      }
    }
    ++k;
    if (k == num_inflight) k = 0;
  }
  return stats;
}

/// GP schedule over the same operation: groups of `group_size` lookups run
/// `num_stages` staged steps (finished lookups burn no-op slots, kRetry
/// spins in place), then a cleanup pass finishes stragglers sequentially.
template <typename Op>
EngineStats RunGroupPrefetch(Op& op, uint64_t num_inputs, uint32_t group_size,
                             uint32_t num_stages) {
  AMAC_CHECK(group_size >= 1 && num_stages >= 1);
  EngineStats stats;
  stats.lookups = num_inputs;
  struct Slot {
    typename Op::State state;
    bool active;
  };
  std::vector<Slot> group(group_size);
  for (uint64_t base = 0; base < num_inputs; base += group_size) {
    const uint32_t in_group = static_cast<uint32_t>(
        std::min<uint64_t>(group_size, num_inputs - base));
    for (uint32_t j = 0; j < in_group; ++j) {
      op.Start(group[j].state, base + j);
      group[j].active = true;
    }
    for (uint32_t stage = 0; stage < num_stages; ++stage) {
      for (uint32_t j = 0; j < in_group; ++j) {
        if (!group[j].active) {
          ++stats.noops;
          continue;
        }
        ++stats.steps;
        const StepStatus st = op.Step(group[j].state);
        if (st == StepStatus::kDone) {
          group[j].active = false;
        } else if (st == StepStatus::kRetry) {
          // Dependency busy: the static schedule cannot park this lookup
          // elsewhere, so the stage slot is wasted and the lookup is left
          // for the cleanup pass (the paper's "executed later, when the
          // dependency is resolved").
          ++stats.retries;
        } else {
          ++stats.parks;
        }
      }
    }
    // Cleanup pass.  Drains round-robin rather than lookup-at-a-time so a
    // lookup blocked on a latch held by a *parked* group member cannot
    // deadlock the pass (ops may hold latches across kParked).
    uint32_t remaining = 0;
    for (uint32_t j = 0; j < in_group; ++j) remaining += group[j].active;
    while (remaining > 0) {
      for (uint32_t j = 0; j < in_group; ++j) {
        if (!group[j].active) continue;
        ++stats.steps;
        const StepStatus st = op.Step(group[j].state);
        if (st == StepStatus::kParked) ++stats.parks;
        if (st == StepStatus::kRetry) ++stats.retries;
        if (st == StepStatus::kDone) {
          group[j].active = false;
          --remaining;
        }
      }
    }
  }
  return stats;
}

/// SPP schedule: static pipeline with `num_stages` stages spaced `distance`
/// iterations apart; a lookup still unfinished at its final scheduled stage
/// bails out sequentially.
template <typename Op>
EngineStats RunSoftwarePipelined(Op& op, uint64_t num_inputs,
                                 uint32_t num_stages, uint32_t distance) {
  AMAC_CHECK(num_stages >= 1 && distance >= 1);
  EngineStats stats;
  stats.lookups = num_inputs;
  const uint64_t window = static_cast<uint64_t>(num_stages) * distance;
  struct Slot {
    typename Op::State state;
    bool active;
  };
  std::vector<Slot> pipe(window);
  for (uint64_t i = 0; i < num_inputs + window; ++i) {
    for (uint32_t s = num_stages; s >= 1; --s) {
      const uint64_t delay = static_cast<uint64_t>(s) * distance;
      if (i < delay) continue;
      const uint64_t t = i - delay;
      if (t >= num_inputs) continue;
      Slot& slot = pipe[t % window];
      if (!slot.active) {
        ++stats.noops;
        continue;
      }
      ++stats.steps;
      const StepStatus st = op.Step(slot.state);
      if (st == StepStatus::kDone) {
        slot.active = false;
        continue;
      }
      if (st == StepStatus::kRetry) ++stats.retries;
      if (st == StepStatus::kParked) ++stats.parks;
      if (s == num_stages) {
        // Pipeline slot expires this iteration: bail out.  If the lookup
        // blocks on a dependency (kRetry) held by another *parked* slot,
        // stepping only this lookup would deadlock, so the drain
        // round-robins over every active slot until this one finishes —
        // the serialization cost the paper attributes to SPP under
        // read/write dependencies.
        while (slot.active) {
          ++stats.steps;
          const StepStatus fin = op.Step(slot.state);
          if (fin == StepStatus::kDone) {
            slot.active = false;
            break;
          }
          if (fin == StepStatus::kParked) ++stats.parks;
          if (fin == StepStatus::kRetry) {
            ++stats.retries;
            for (auto& other : pipe) {
              if (&other == &slot || !other.active) continue;
              ++stats.steps;
              const StepStatus os = op.Step(other.state);
              if (os == StepStatus::kDone) other.active = false;
              if (os == StepStatus::kParked) ++stats.parks;
              if (os == StepStatus::kRetry) ++stats.retries;
            }
          }
        }
      }
    }
    if (i < num_inputs) {
      Slot& slot = pipe[i % window];
      op.Start(slot.state, i);
      slot.active = true;
    }
  }
  return stats;
}

/// Sequential schedule: the paper's no-prefetch Baseline expressed over the
/// same operation.  Each lookup runs to completion before the next starts,
/// and the op's prefetches are switched off for the run, since nothing
/// else runs while they would land.
template <typename Op>
EngineStats RunSequential(Op& op, uint64_t num_inputs) {
  NoPrefetchScope no_prefetch;
  EngineStats stats;
  stats.lookups = num_inputs;
  typename Op::State state;
  for (uint64_t i = 0; i < num_inputs; ++i) {
    op.Start(state, i);
    StepStatus st;
    do {
      ++stats.steps;
      st = op.Step(state);
      if (st == StepStatus::kParked) ++stats.parks;
      if (st == StepStatus::kRetry) ++stats.retries;
    } while (st != StepStatus::kDone);
  }
  return stats;
}

}  // namespace amac
