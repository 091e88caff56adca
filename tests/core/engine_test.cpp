// Generic-engine tests: all four schedules over the same operations must
// produce identical results, the scheduling statistics must reflect each
// schedule's character, and the latch-retry path (HashBuildOp) must be
// deadlock-free on every schedule.  The schedule contract: the sequential
// schedule (and the kVectorized fallback that runs it) issues no
// prefetches, every other static schedule does, and the switch never
// outlives the sequential run on its thread.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/prefetch.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {
namespace {

/// Toy operation for schedule-level tests: walks `lengths[idx]` virtual
/// steps, recording the completion order.
class CountdownOp {
 public:
  struct State {
    uint64_t idx;
    uint32_t remaining;
  };

  explicit CountdownOp(std::vector<uint32_t> lengths)
      : lengths_(std::move(lengths)) {}

  void Start(State& st, uint64_t idx) {
    st.idx = idx;
    st.remaining = lengths_[idx];
  }

  StepStatus Step(State& st) {
    if (--st.remaining == 0) {
      completion_order.push_back(st.idx);
      return StepStatus::kDone;
    }
    return StepStatus::kParked;
  }

  std::vector<uint64_t> completion_order;

 private:
  std::vector<uint32_t> lengths_;
};

TEST(EngineTest, SequentialCompletesInInputOrder) {
  CountdownOp op({3, 1, 2, 5, 1});
  const EngineStats stats = RunSequential(op, 5);
  EXPECT_EQ(op.completion_order, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.steps, 3u + 1 + 2 + 5 + 1);
  EXPECT_EQ(stats.parks, stats.steps - stats.lookups);
}

TEST(EngineTest, AllSchedulesCountParksConsistently) {
  // CountdownOp never retries, so for every schedule each lookup's steps
  // are (length - 1) parks plus one done: parks == steps - lookups, and
  // the counters are comparable between the sequential and scheduled runs.
  const std::vector<uint32_t> lengths{3, 1, 4, 1, 5, 9, 2, 6};
  uint64_t total = 0;
  for (uint32_t len : lengths) total += len;
  std::vector<EngineStats> all;
  {
    CountdownOp op(lengths);
    all.push_back(RunSequential(op, lengths.size()));
  }
  {
    CountdownOp op(lengths);
    all.push_back(RunAmac(op, lengths.size(), 4));
  }
  {
    CountdownOp op(lengths);
    all.push_back(RunGroupPrefetch(op, lengths.size(), 4, 2));
  }
  {
    CountdownOp op(lengths);
    all.push_back(RunSoftwarePipelined(op, lengths.size(), 2, 2));
  }
  for (const EngineStats& stats : all) {
    EXPECT_EQ(stats.steps, total);
    EXPECT_EQ(stats.parks, total - lengths.size());
    EXPECT_EQ(stats.retries, 0u);
  }
}

TEST(EngineStatsTest, MergeSumsEveryCounter) {
  EngineStats a;
  a.lookups = 10;
  a.steps = 30;
  a.parks = 15;
  a.retries = 5;
  a.noops = 2;
  EngineStats b;
  b.lookups = 1;
  b.steps = 2;
  b.parks = 1;
  b.retries = 0;
  b.noops = 3;
  a.Merge(b);
  EXPECT_EQ(a.lookups, 11u);
  EXPECT_EQ(a.steps, 32u);
  EXPECT_EQ(a.parks, 16u);
  EXPECT_EQ(a.retries, 5u);
  EXPECT_EQ(a.noops, 5u);
}

TEST(EngineTest, AmacCompletesShortLookupsFirst) {
  // With all lookups in flight, shorter chains finish earlier regardless
  // of input position — the asynchrony AMAC is named for.
  CountdownOp op({5, 1, 5, 1, 5});
  RunAmac(op, 5, 5);
  ASSERT_EQ(op.completion_order.size(), 5u);
  EXPECT_EQ(op.completion_order[0], 1u);
  EXPECT_EQ(op.completion_order[1], 3u);
}

TEST(EngineTest, AmacRefillsFinishedSlots) {
  // Window of 2 over 6 lookups: every lookup must complete exactly once.
  CountdownOp op({2, 4, 1, 1, 3, 2});
  const EngineStats stats = RunAmac(op, 6, 2);
  std::vector<uint64_t> sorted = op.completion_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.steps, 2u + 4 + 1 + 1 + 3 + 2);
}

TEST(EngineTest, GpBurnsNoopsOnIrregularLengths) {
  // Group of 4 with 3 staged passes over very unequal chains: the early
  // finishers burn no-op slots, the long chain needs cleanup.
  CountdownOp op({1, 1, 1, 6, 1, 1, 1, 6});
  const EngineStats stats = RunGroupPrefetch(op, 8, 4, 3);
  EXPECT_EQ(op.completion_order.size(), 8u);
  EXPECT_GT(stats.noops, 0u);
  EXPECT_EQ(stats.steps, 1u + 1 + 1 + 6 + 1 + 1 + 1 + 6);
}

TEST(EngineTest, SppHandlesWindowLargerThanInput) {
  CountdownOp op({2, 2});
  const EngineStats stats = RunSoftwarePipelined(op, 2, 4, 4);
  EXPECT_EQ(op.completion_order.size(), 2u);
  EXPECT_EQ(stats.lookups, 2u);
}

TEST(EngineTest, AllSchedulesCompleteEveryLookup) {
  std::vector<uint32_t> lengths;
  for (uint32_t i = 0; i < 500; ++i) lengths.push_back(i % 7 + 1);
  for (int schedule = 0; schedule < 4; ++schedule) {
    CountdownOp op(lengths);
    switch (schedule) {
      case 0: RunSequential(op, lengths.size()); break;
      case 1: RunAmac(op, lengths.size(), 10); break;
      case 2: RunGroupPrefetch(op, lengths.size(), 10, 4); break;
      case 3: RunSoftwarePipelined(op, lengths.size(), 4, 3); break;
    }
    std::vector<uint64_t> sorted = op.completion_order;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), lengths.size()) << "schedule " << schedule;
    for (uint64_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  }
}

// --- engine-driven operations vs hand-written kernels ----------------------

TEST(EngineOpsTest, HashProbeOpMatchesHandWrittenAmac) {
  const uint64_t n = 4000;
  const Relation build = MakeZipfRelation(n, n, 0.75, 111);
  const Relation probe = MakeZipfRelation(n, n, 0.75, 112);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);

  CountChecksumSink hand;
  ProbeAmac<false>(table, probe, 0, probe.size(), 10, hand);

  CountChecksumSink engine_sink;
  ProbeOp<false, CountChecksumSink> op(table, probe, engine_sink);
  const EngineStats stats = RunAmac(op, probe.size(), 10);
  EXPECT_EQ(engine_sink.matches(), hand.matches());
  EXPECT_EQ(engine_sink.checksum(), hand.checksum());
  EXPECT_EQ(stats.lookups, probe.size());
  EXPECT_GE(stats.steps, probe.size());  // >= one node visit per lookup
}

TEST(EngineOpsTest, HashProbeOpIdenticalAcrossSchedules) {
  const uint64_t n = 3000;
  const Relation build = MakeDenseUniqueRelation(n, 113);
  const Relation probe = MakeForeignKeyRelation(n, n, 114);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);

  uint64_t expected_checksum = 0;
  for (int schedule = 0; schedule < 4; ++schedule) {
    CountChecksumSink sink;
    ProbeOp<true, CountChecksumSink> op(table, probe, sink);
    switch (schedule) {
      case 0: RunSequential(op, n); break;
      case 1: RunAmac(op, n, 8); break;
      case 2: RunGroupPrefetch(op, n, 8, 2); break;
      case 3: RunSoftwarePipelined(op, n, 2, 4); break;
    }
    EXPECT_EQ(sink.matches(), n) << "schedule " << schedule;
    if (schedule == 0) {
      expected_checksum = sink.checksum();
    } else {
      EXPECT_EQ(sink.checksum(), expected_checksum)
          << "schedule " << schedule;
    }
  }
}

TEST(EngineOpsTest, BstSearchOpMatchesBaseline) {
  const uint64_t n = 2000;
  const Relation rel = MakeDenseUniqueRelation(n, 115);
  const BinarySearchTree tree = BuildBst(rel);
  const Relation probe = MakeForeignKeyRelation(n, n, 116);
  CountChecksumSink sink;
  BstSearchOp<CountChecksumSink> op(tree, probe, sink);
  RunAmac(op, n, 10);
  EXPECT_EQ(sink.matches(), n);
}

TEST(EngineOpsTest, HashBuildOpAllSchedulesBuildIdenticalTables) {
  const Relation rel = MakeZipfRelation(5000, 1500, 0.5, 117);
  std::vector<uint64_t> totals;
  for (int schedule = 0; schedule < 4; ++schedule) {
    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    HashBuildOp<false> op(table, rel);
    switch (schedule) {
      case 0: RunSequential(op, rel.size()); break;
      case 1: RunAmac(op, rel.size(), 8); break;
      case 2: RunGroupPrefetch(op, rel.size(), 8, 2); break;
      case 3: RunSoftwarePipelined(op, rel.size(), 2, 4); break;
    }
    EXPECT_EQ(table.ComputeStats().total_tuples, rel.size())
        << "schedule " << schedule;
    std::vector<int64_t> payloads;
    table.FindAll(rel[0].key, &payloads);
    EXPECT_FALSE(payloads.empty());
    totals.push_back(table.ComputeStats().total_tuples);
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
  EXPECT_EQ(totals[0], totals[3]);
}

TEST(EngineOpsTest, HashBuildOpSingleHotBucketNoDeadlock) {
  // Every insert targets one bucket; the latch is held across parks while
  // the chain walk proceeds.  All schedules must drain without deadlock.
  Relation rel(400);
  for (uint64_t i = 0; i < rel.size(); ++i) {
    rel[i] = Tuple{5, static_cast<int64_t>(i)};
  }
  for (int schedule = 0; schedule < 4; ++schedule) {
    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    HashBuildOp<false> op(table, rel);
    switch (schedule) {
      case 0: RunSequential(op, rel.size()); break;
      case 1: RunAmac(op, rel.size(), 6); break;
      case 2: RunGroupPrefetch(op, rel.size(), 6, 3); break;
      case 3: RunSoftwarePipelined(op, rel.size(), 3, 2); break;
    }
    std::vector<int64_t> payloads;
    table.FindAll(5, &payloads);
    EXPECT_EQ(payloads.size(), rel.size()) << "schedule " << schedule;
  }
}

TEST(EngineStatsTest, StepsPerLookupComputed) {
  EngineStats stats;
  stats.lookups = 10;
  stats.steps = 45;
  EXPECT_DOUBLE_EQ(stats.StepsPerLookup(), 4.5);
  EngineStats empty;
  EXPECT_EQ(empty.StepsPerLookup(), 0.0);
}

// --- the schedule contract: who issues prefetches --------------------------

/// Counts, for every Start/Step, whether the prefetch it issues is live on
/// the calling thread.  Counters are shared so per-slot copies on an
/// Executor team add up.
struct PrefetchTally {
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> suppressed{0};
};

/// Scalar op: two steps per lookup, one prefetch per Start and Step.
class PrefetchProbeOp {
 public:
  struct State {
    uint32_t remaining;
  };

  explicit PrefetchProbeOp(PrefetchTally& tally) : tally_(&tally) {}

  void Start(State& st, uint64_t) {
    st.remaining = 2;
    Touch();
  }

  StepStatus Step(State& st) {
    Touch();
    return --st.remaining == 0 ? StepStatus::kDone : StepStatus::kParked;
  }

 protected:
  void Touch() {
    Prefetch(&line_);
    ++(PrefetchesEnabled() ? tally_->issued : tally_->suppressed);
  }

 private:
  PrefetchTally* tally_;
  uint64_t line_ = 0;
};

/// The same op with a vector interface, so kVectorized and kVectorizedAmac
/// run the vector schedules instead of their scalar fallbacks.
class VecPrefetchProbeOp : public PrefetchProbeOp {
 public:
  static constexpr uint32_t kVecLanes = 4;
  struct VecState {
    uint32_t remaining[kVecLanes];
    uint32_t active;
  };

  using PrefetchProbeOp::PrefetchProbeOp;

  void StartVec(VecState& st, uint64_t, uint32_t n) {
    st.active = 0;
    for (uint32_t lane = 0; lane < n; ++lane) RefillLane(st, lane, 0);
  }

  void RefillLane(VecState& st, uint32_t lane, uint64_t) {
    st.remaining[lane] = 2;
    st.active |= 1u << lane;
    Touch();
  }

  uint32_t StepVec(VecState& st) {
    Touch();
    for (uint32_t lane = 0; lane < kVecLanes; ++lane) {
      if ((st.active & (1u << lane)) && --st.remaining[lane] == 0) {
        st.active &= ~(1u << lane);
      }
    }
    return st.active;
  }
};

/// Whether `policy` must run `Op` with prefetches off: kSequential always,
/// and kVectorized when the op has no vector interface (it then runs the
/// sequential schedule).
template <typename Op>
bool RunsWithoutPrefetches(ExecPolicy policy) {
  return policy == ExecPolicy::kSequential ||
         (policy == ExecPolicy::kVectorized && !kHasVectorExec<Op>);
}

template <typename Op>
void ExpectPrefetchContract() {
  const SchedulerParams params{4, 2, 0};
  for (ExecPolicy policy : kAllExecPolicies) {
    PrefetchTally tally;
    Op op(tally);
    Run(policy, params, op, 64);
    const char* name = ExecPolicyName(policy);
    if (RunsWithoutPrefetches<Op>(policy)) {
      EXPECT_EQ(tally.issued.load(), 0u) << name;
      EXPECT_GT(tally.suppressed.load(), 0u) << name;
    } else {
      EXPECT_EQ(tally.suppressed.load(), 0u) << name;
      EXPECT_GT(tally.issued.load(), 0u) << name;
    }
    EXPECT_TRUE(PrefetchesEnabled()) << name << " leaked its setting";
  }
}

TEST(ScheduleContractTest, OnlyTheSequentialScheduleSkipsPrefetches) {
  ExpectPrefetchContract<PrefetchProbeOp>();
}

TEST(ScheduleContractTest, VectorSchedulesKeepPrefetching) {
  ExpectPrefetchContract<VecPrefetchProbeOp>();
}

TEST(ScheduleContractTest, AmacAfterSequentialOnOneThreadPrefetches) {
  PrefetchTally seq;
  PrefetchProbeOp seq_op(seq);
  RunSequential(seq_op, 16);
  PrefetchTally amac;
  PrefetchProbeOp amac_op(amac);
  RunAmac(amac_op, 16, 4);
  EXPECT_EQ(seq.issued.load(), 0u);
  EXPECT_EQ(amac.suppressed.load(), 0u);
  EXPECT_GT(amac.issued.load(), 0u);
}

TEST(ScheduleContractTest, NestedSequentialRunRestoresTheOuterSetting) {
  NoPrefetchScope outer;
  PrefetchTally tally;
  PrefetchProbeOp op(tally);
  RunSequential(op, 4);
  EXPECT_FALSE(PrefetchesEnabled());
}

TEST(ScheduleContractTest, TeamWorkersHoldTheContractAcrossQueries) {
  // The same worker threads run a kSequential query and then an AMAC one;
  // morsels of the first must skip prefetches, morsels of the second must
  // issue them.
  Executor exec(ExecConfig{ExecPolicy::kSequential, SchedulerParams{4, 2, 0},
                           /*num_threads=*/2, /*morsel_size=*/16});
  PrefetchTally seq;
  exec.RunOp(256, [&](uint32_t) { return PrefetchProbeOp(seq); });
  exec.set_policy(ExecPolicy::kAmac);
  PrefetchTally amac;
  exec.RunOp(256, [&](uint32_t) { return PrefetchProbeOp(amac); });
  EXPECT_EQ(seq.issued.load(), 0u);
  EXPECT_GT(seq.suppressed.load(), 0u);
  EXPECT_EQ(amac.suppressed.load(), 0u);
  EXPECT_GT(amac.issued.load(), 0u);
}

}  // namespace
}  // namespace amac
