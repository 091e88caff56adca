// Property tests for the runtime's tuning-parameter plumbing:
//  * SchedulerParams::SppDistance() — the derived SPP prefetch distance
//    must be well-defined (>= 1) for every inflight/stages combination,
//    including the degenerate zeros, and an explicit override must win;
//  * morsel sharding edge cases — a multi-thread Executor must execute
//    every input exactly once when the input count is smaller than the
//    in-flight window, smaller than the thread count, or zero.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/scheduler.h"

namespace amac {
namespace {

// -- SppDistance ------------------------------------------------------------

TEST(SchedulerParamsTest, SppDistanceDerivationProperties) {
  for (uint32_t inflight = 0; inflight <= 64; ++inflight) {
    for (uint32_t stages = 0; stages <= 8; ++stages) {
      const SchedulerParams params{inflight, stages, 0};
      const uint32_t d = params.SppDistance();
      // Never zero: a zero distance would make the SPP window empty and
      // the pipeline loop in engine.h divide-by-zero on the modulo.
      ASSERT_GE(d, 1u) << "inflight=" << inflight << " stages=" << stages;
      // Exact derivation contract shared by every driver in the repo.
      ASSERT_EQ(d, std::max<uint32_t>(
                       1, inflight / std::max<uint32_t>(1, stages)))
          << "inflight=" << inflight << " stages=" << stages;
    }
  }
}

TEST(SchedulerParamsTest, SppDistanceMonotoneInInflight) {
  for (uint32_t stages = 1; stages <= 6; ++stages) {
    uint32_t prev = 0;
    for (uint32_t inflight = 1; inflight <= 64; ++inflight) {
      const uint32_t d = SchedulerParams{inflight, stages, 0}.SppDistance();
      ASSERT_GE(d, prev) << "inflight=" << inflight << " stages=" << stages;
      prev = d;
    }
  }
}

// Named pins for the edge cases the adaptive governor's grid actually
// produces (narrow windows against multi-stage pipelines).  These are
// implied by the exhaustive sweep above, but each failure mode deserves a
// test that names it.
TEST(SchedulerParamsTest, SppDistanceInflightSmallerThanStages) {
  // M < N: fewer in-flight lookups than provisioned stages must degrade
  // to the minimum distance 1, not 0 (engine.h modulos by the window).
  EXPECT_EQ((SchedulerParams{1, 4, 0}).SppDistance(), 1u);
  EXPECT_EQ((SchedulerParams{3, 8, 0}).SppDistance(), 1u);
  EXPECT_EQ((SchedulerParams{7, 8, 0}).SppDistance(), 1u);
}

TEST(SchedulerParamsTest, SppDistanceZeroStages) {
  // stages = 0 is a tolerated degenerate (clamped to 1), so the distance
  // equals the full in-flight width.
  EXPECT_EQ((SchedulerParams{10, 0, 0}).SppDistance(), 10u);
  EXPECT_EQ((SchedulerParams{0, 0, 0}).SppDistance(), 1u);
}

TEST(SchedulerParamsTest, SppDistanceInflightOne) {
  // M = 1 is the sequential-like window: distance 1 for any stage count.
  for (uint32_t stages = 0; stages <= 8; ++stages) {
    EXPECT_EQ((SchedulerParams{1, stages, 0}).SppDistance(), 1u)
        << "stages=" << stages;
  }
}

TEST(SchedulerParamsTest, ExplicitSppDistanceOverrideWins) {
  for (uint32_t override_d : {1u, 3u, 17u, 1024u}) {
    const SchedulerParams params{10, 4, override_d};
    EXPECT_EQ(params.SppDistance(), override_d);
  }
  // Zero means "derive", not "zero distance".
  EXPECT_EQ((SchedulerParams{12, 3, 0}).SppDistance(), 4u);
}

// -- ResolveMorselSize ------------------------------------------------------

TEST(ResolveMorselSizeTest, RequestedSizeWins) {
  EXPECT_EQ(ResolveMorselSize(1 << 20, 4, 777, 10), 777u);
}

TEST(ResolveMorselSizeTest, AutoSizeStaysWithinBounds) {
  // Small inputs: floored so the in-flight window stays busy.
  EXPECT_GE(ResolveMorselSize(100, 4, 0, 10), 100u);
  // Large inputs: capped so no single claim dominates the tail.
  EXPECT_LE(ResolveMorselSize(uint64_t{1} << 32, 2, 0, 10),
            uint64_t{1} << 16);
  // Zero inputs must still return a nonzero morsel (cursor contract).
  EXPECT_GE(ResolveMorselSize(0, 4, 0, 10), 1u);
  // Absurd in-flight widths must not push the floor past the cap.
  EXPECT_EQ(ResolveMorselSize(uint64_t{1} << 20, 2, 0, 9000),
            uint64_t{1} << 16);
}

TEST(ResolveMorselSizeTest, AlwaysAtLeastOneAndRequestedWins) {
  for (uint64_t inputs : {0ull, 1ull, 7ull, 1000ull, 1ull << 22}) {
    for (uint32_t threads : {0u, 1u, 3u, 64u}) {
      for (uint32_t inflight : {0u, 1u, 10u, 9000u}) {
        const uint64_t auto_size =
            ResolveMorselSize(inputs, threads, 0, inflight);
        ASSERT_GE(auto_size, 1u)
            << "inputs=" << inputs << " threads=" << threads
            << " inflight=" << inflight;
        ASSERT_EQ(ResolveMorselSize(inputs, threads, 42, inflight), 42u);
      }
    }
  }
}

TEST(ResolveMorselSizeTest, AutoSizeCoversInFlightWindow) {
  // A morsel smaller than the in-flight window would run the schedule
  // forever in its fill/drain ramp.
  for (uint32_t inflight : {1u, 8u, 32u}) {
    const uint64_t m = ResolveMorselSize(1 << 20, 4, 0, inflight);
    EXPECT_GE(m, uint64_t{inflight});
  }
}

// -- morsel sharding edge cases ---------------------------------------------

/// Marks each started input in a shared slot array; Step verifies single
/// execution.  Safe across threads: each input index is claimed by exactly
/// one morsel, each morsel by exactly one thread.
class MarkOp {
 public:
  struct State {
    uint64_t idx;
  };

  explicit MarkOp(std::atomic<uint32_t>* slots) : slots_(slots) {}

  void Start(State& st, uint64_t idx) { st.idx = idx; }
  StepStatus Step(State& st) {
    slots_[st.idx].fetch_add(1, std::memory_order_relaxed);
    return StepStatus::kDone;
  }

 private:
  std::atomic<uint32_t>* slots_;
};

void ExpectEveryInputExactlyOnce(uint64_t num_inputs, uint32_t threads,
                                 uint32_t inflight, uint64_t morsel_size,
                                 ExecPolicy policy) {
  auto slots = std::make_unique<std::atomic<uint32_t>[]>(
      num_inputs > 0 ? num_inputs : 1);
  for (uint64_t i = 0; i < num_inputs; ++i) slots[i] = 0;
  Executor exec(ExecConfig{policy, SchedulerParams{inflight, 2, 0}, threads,
                           morsel_size});
  const RunStats stats =
      exec.RunOp(num_inputs, [&](uint32_t) { return MarkOp(slots.get()); });
  EXPECT_EQ(stats.engine.lookups, num_inputs)
      << ExecPolicyName(policy) << " threads=" << threads
      << " inflight=" << inflight;
  for (uint64_t i = 0; i < num_inputs; ++i) {
    ASSERT_EQ(slots[i].load(), 1u)
        << ExecPolicyName(policy) << " input " << i << " threads=" << threads
        << " inflight=" << inflight << " morsel=" << morsel_size;
  }
}

TEST(MorselShardingTest, FewerInputsThanInflightWindow) {
  for (ExecPolicy policy : kAllExecPolicies) {
    ExpectEveryInputExactlyOnce(/*num_inputs=*/3, /*threads=*/2,
                                /*inflight=*/32, /*morsel_size=*/0, policy);
  }
}

TEST(MorselShardingTest, FewerInputsThanThreads) {
  for (ExecPolicy policy : kAllExecPolicies) {
    ExpectEveryInputExactlyOnce(/*num_inputs=*/2, /*threads=*/8,
                                /*inflight=*/4, /*morsel_size=*/1, policy);
  }
}

TEST(MorselShardingTest, ZeroInputs) {
  for (ExecPolicy policy : kAllExecPolicies) {
    ExpectEveryInputExactlyOnce(/*num_inputs=*/0, /*threads=*/4,
                                /*inflight=*/8, /*morsel_size=*/0, policy);
  }
}

TEST(MorselShardingTest, SingleInputManyThreads) {
  for (ExecPolicy policy : kAllExecPolicies) {
    ExpectEveryInputExactlyOnce(/*num_inputs=*/1, /*threads=*/8,
                                /*inflight=*/16, /*morsel_size=*/0, policy);
  }
}

TEST(MorselShardingTest, MorselLargerThanInput) {
  for (ExecPolicy policy : kAllExecPolicies) {
    ExpectEveryInputExactlyOnce(/*num_inputs=*/100, /*threads=*/4,
                                /*inflight=*/8, /*morsel_size=*/4096,
                                policy);
  }
}

TEST(MorselShardingTest, UnevenTailMorsel) {
  // 1000 inputs over 64-sized morsels leaves a 40-element tail.
  for (ExecPolicy policy : kAllExecPolicies) {
    ExpectEveryInputExactlyOnce(/*num_inputs=*/1000, /*threads=*/3,
                                /*inflight=*/10, /*morsel_size=*/64, policy);
  }
}

}  // namespace
}  // namespace amac
