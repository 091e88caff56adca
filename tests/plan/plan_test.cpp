// Plan-layer tests (src/plan/).
//
// The load-bearing property: every physical shape PlanCompiler::Enumerate
// produces for a plan is RESULT-IDENTICAL — same outputs, same
// order-independent checksum — across every execution policy and thread
// count, pinned bitwise against the sequential single-threaded oracle.
// That equivalence is what makes the optimizer's choice purely a
// performance decision.  Plus: cost-model unit tests (planted priors
// steer the choice; exploration runs each shape once at full size and
// stores its prior), RunHashJoin against its manual phases, scheduler
// submission, and calibrator staleness.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/calibrator.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "core/pipeline.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "plan/plan.h"
#include "relation/relation.h"

namespace amac {
namespace {

Executor MakeExec(ExecPolicy policy, uint32_t inflight = 10,
                  uint32_t threads = 1) {
  return Executor(ExecConfig{policy, SchedulerParams{inflight, 2, 0},
                             threads, 0});
}

/// The canonical join + group-by fixture: unique-keyed R, FK-distributed S
/// with a controllable match rate via key range shift.
struct JoinFixture {
  Relation r;
  Relation s;

  JoinFixture(uint64_t r_size, uint64_t s_size, double hit_rate) {
    r = MakeDenseUniqueRelation(r_size, 7);  // keys: permutation of [1, n]
    s = MakeForeignKeyRelation(s_size, r_size, 8);
    // Redirect a suffix of the probes to keys above R's range to set the
    // match rate.
    const uint64_t misses =
        static_cast<uint64_t>(static_cast<double>(s_size) * (1 - hit_rate));
    for (uint64_t i = s_size - misses; i < s_size; ++i) {
      s[i] = Tuple{static_cast<int64_t>(r_size + 1 + i), s[i].payload};
    }
  }
};

Plan JoinGroupByPlan(const JoinFixture& fx, uint64_t groups) {
  return Plan::Scan(fx.s).HashJoin(fx.r).GroupBy(groups);
}

// ---------------------------------------------------------------- shapes --

TEST(PlanCompilerTest, EnumeratesAllJoinGroupByShapes) {
  const JoinFixture fx(512, 2048, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  const std::vector<PlanShape> want{PlanShape::kFused, PlanShape::kTwoPhase};
  EXPECT_EQ(PlanCompiler::Enumerate(plan, PlanOptions{}), want);
  const ChainedHashTable table(fx.r.size(), ChainedHashTable::Options{});
  const Plan lookup = Plan::Scan(fx.s).Lookup(table).GroupBy(1024);
  EXPECT_EQ(PlanCompiler::Enumerate(lookup, PlanOptions{}), want);
}

TEST(PlanCompilerTest, AlternativesNeedLeanUniqueJoins) {
  const JoinFixture fx(512, 2048, 0.5);
  // Non-early-exit join: no two-phase.
  JoinOptions dup;
  dup.early_exit = false;
  const Plan nonunique = Plan::Scan(fx.s).HashJoin(fx.r, dup).GroupBy(2048);
  EXPECT_EQ(PlanCompiler::Enumerate(nonunique, PlanOptions{}).size(), 1u);
  // A filter between scan and join: structure pinned too.
  const Plan filtered = Plan::Scan(fx.s)
                            .Filter([](const Tuple& t) { return t.key >= 0; })
                            .HashJoin(fx.r)
                            .GroupBy(1024);
  EXPECT_EQ(PlanCompiler::Enumerate(filtered, PlanOptions{}).size(), 1u);
  // No group-by: only the fused shape.
  const Plan nogroup = Plan::Scan(fx.s).HashJoin(fx.r);
  const auto shapes = PlanCompiler::Enumerate(nogroup, PlanOptions{});
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0], PlanShape::kFused);
}

TEST(PlanCompilerTest, PinsFilterTheList) {
  const JoinFixture fx(512, 2048, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  for (const PlanShape shape : {PlanShape::kFused, PlanShape::kTwoPhase}) {
    PlanOptions pin;
    pin.shape = shape;
    EXPECT_EQ(PlanCompiler::Enumerate(plan, pin),
              std::vector<PlanShape>{shape});
  }
}

// A plan-built join with no group-by has one shape on any thread count, so
// RunPlan neither explores nor stores a prior.
TEST(PlanCompilerTest, PlanBuiltJoinRunsOneShapeOnAnyThreadCount) {
  const JoinFixture fx(1024, 8192, 0.7);
  const Plan plan = Plan::Scan(fx.s).HashJoin(fx.r);
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  const PlanResult oracle = RunPlan(oracle_exec, plan);
  ASSERT_GT(oracle.run.outputs, 0u);
  for (const uint32_t threads : {1u, 4u}) {
    Executor exec = MakeExec(ExecPolicy::kAmac, 10, threads);
    const PlanResult got = RunPlan(exec, plan);
    EXPECT_EQ(got.run.plan.candidates_considered, 1u) << threads;
    EXPECT_EQ(got.run.plan.shape, PlanShape::kFused) << threads;
    EXPECT_FALSE(got.run.plan.from_priors) << threads;
    EXPECT_EQ(exec.calibrator().entries(), 0u) << threads;
    EXPECT_EQ(got.build.inputs, fx.r.size()) << threads;
    EXPECT_EQ(got.run.outputs, oracle.run.outputs) << threads;
    EXPECT_EQ(got.run.checksum, oracle.run.checksum) << threads;
  }
}

// The core differential: every enumerated shape x policy x threads agrees
// bitwise with the sequential single-threaded oracle.
TEST(PlanDifferentialTest, AllShapesMatchSequentialOracle) {
  for (const double hit_rate : {1.0, 0.1}) {
    const JoinFixture fx(1024, 8192, hit_rate);
    const Plan plan = JoinGroupByPlan(fx, 2048);
    Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
    PlanOptions pin;  // oracle: the default fused shape
    pin.shape = PlanShape::kFused;
    const PlanResult oracle = RunPlan(oracle_exec, plan, pin);
    ASSERT_GT(oracle.run.outputs, 0u);
    for (const ExecPolicy policy :
         {ExecPolicy::kSequential, ExecPolicy::kAmac,
          ExecPolicy::kVectorizedAmac}) {
      for (const uint32_t threads : {1u, 4u}) {
        Executor exec = MakeExec(policy, 10, threads);
        for (const PlanShape shape :
             PlanCompiler::Enumerate(plan, PlanOptions{})) {
          PlanOptions opt;
          opt.shape = shape;
          const PlanResult got = RunPlan(exec, plan, opt);
          const std::string label = std::string(PlanShapeName(shape)) + " " +
                                    ExecPolicyName(policy) + " t=" +
                                    std::to_string(threads) + " hit=" +
                                    std::to_string(hit_rate);
          EXPECT_EQ(got.run.outputs, oracle.run.outputs) << label;
          EXPECT_EQ(got.run.checksum, oracle.run.checksum) << label;
          EXPECT_EQ(got.run.plan.shape, shape) << label;
        }
      }
    }
  }
}

// With a multi-thread executor the plan builds its join and group tables,
// summarises its groups and copies the two-phase intermediate on the
// executor's team (three threads: no power-of-two bucket count divides).
// Every shape, and the first unpinned run's choice, must still agree
// bitwise with the sequential single-threaded oracle and observe every row.
TEST(PlanDifferentialTest, TeamSetUpShapesMatchSequentialOracle) {
  const uint64_t r_size = uint64_t{1} << 17;
  const uint64_t s_size = uint64_t{1} << 18;
  const JoinFixture fx(r_size, s_size, 1.0);
  const Plan plan = JoinGroupByPlan(fx, r_size);
  Executor oracle_exec = MakeExec(ExecPolicy::kSequential);
  PlanOptions pin;
  pin.shape = PlanShape::kFused;
  const PlanResult oracle = RunPlan(oracle_exec, plan, pin);
  ASSERT_GT(oracle.run.outputs, 0u);
  const uint32_t threads = 3;
  Executor exec = MakeExec(ExecPolicy::kAmac, 10, threads);
  for (const PlanShape shape : PlanCompiler::Enumerate(plan, PlanOptions{})) {
    PlanOptions opt;
    opt.shape = shape;
    const PlanResult got = RunPlan(exec, plan, opt);
    EXPECT_EQ(got.run.outputs, oracle.run.outputs) << PlanShapeName(shape);
    EXPECT_EQ(got.run.checksum, oracle.run.checksum) << PlanShapeName(shape);
    EXPECT_DOUBLE_EQ(got.run.plan.observed_selectivity, 1.0)
        << PlanShapeName(shape);
  }
  Executor fresh = MakeExec(ExecPolicy::kAmac, 10, threads);
  const PlanResult measured = RunPlan(fresh, plan);
  EXPECT_FALSE(measured.run.plan.from_priors);
  EXPECT_EQ(measured.run.outputs, oracle.run.outputs);
  EXPECT_EQ(measured.run.checksum, oracle.run.checksum);
}

TEST(PlanDifferentialTest, FilterMapPlansMatchHandLoop) {
  const JoinFixture fx(512, 4096, 0.8);
  ChainedHashTable table(fx.r.size(), ChainedHashTable::Options{});
  {
    Executor build_exec = MakeExec(ExecPolicy::kAmac);
    BuildPhase(build_exec, fx.r, &table);
  }
  const Plan plan = Plan::Scan(fx.s)
                        .Filter([](const Tuple& t) { return t.key % 3 != 0; })
                        .Lookup(table)
                        .Map([](const Tuple& t) {
                          return Tuple{t.key + 1, t.payload * 2};
                        });
  // Hand loop oracle over the same semantics (early-exit unique join;
  // dense build keys are [1, r_size] with payload PayloadForKey(k)).
  RowSink expect;
  for (uint64_t i = 0; i < fx.s.size(); ++i) {
    const Tuple& probe = fx.s[i];
    if (probe.key % 3 == 0) continue;
    if (probe.key >= 1 &&
        probe.key <= static_cast<int64_t>(fx.r.size())) {
      const Tuple row{PayloadForKey(probe.key), probe.payload};
      expect.Emit(Tuple{row.key + 1, row.payload * 2});
    }
  }
  for (const uint32_t threads : {1u, 4u}) {
    Executor exec = MakeExec(ExecPolicy::kAmac, 10, threads);
    const RunStats got = exec.Run(plan);
    EXPECT_EQ(got.outputs, expect.rows()) << threads;
    EXPECT_EQ(got.checksum, expect.checksum()) << threads;
  }
}

TEST(PlanDifferentialTest, IndexAndWalkPlansMatchPipelineRuns) {
  const uint64_t n = 2000;
  const Relation keys = MakeDenseUniqueRelation(n, 19);
  const BTree tree(keys);
  const Relation probes = MakeForeignKeyRelation(3000, n, 31);
  Executor exec = MakeExec(ExecPolicy::kAmac, 10, 2);
  const RunStats direct = exec.Run(Scan(probes).Then(LookupBTree(tree)));
  const RunStats planned = exec.Run(Plan::Scan(probes).LookupBTree(tree));
  EXPECT_GT(planned.outputs, 0u);
  EXPECT_EQ(planned.outputs, direct.outputs);
  EXPECT_EQ(planned.checksum, direct.checksum);

  CsrGraph::Options gopt;
  gopt.num_vertices = 512;
  gopt.out_degree = 8;
  gopt.seed = 17;
  const CsrGraph graph(gopt);
  const RunStats walk_direct = exec.Run(Walks(graph, 64, 10, 5));
  const RunStats walk_planned = exec.Run(Plan::Walks(graph, 64, 10, 5));
  EXPECT_GT(walk_planned.outputs, 0u);
  EXPECT_EQ(walk_planned.outputs, walk_direct.outputs);
  EXPECT_EQ(walk_planned.checksum, walk_direct.checksum);
}

TEST(PlanTest, GroupByIntoUsesCallerTable) {
  const Relation input = MakeGroupByInput(800, 5, 23);
  AggregateTable mine(800, AggregateTable::Options{});
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const PlanResult res = RunPlan(exec, Plan::Scan(input).GroupByInto(&mine));
  EXPECT_EQ(res.groups, nullptr);
  EXPECT_EQ(res.run.outputs, mine.CountGroups());
  EXPECT_EQ(res.run.checksum, mine.Checksum());

  AggregateTable owned_oracle(800, AggregateTable::Options{});
  RunGroupBy(exec, input, &owned_oracle);
  EXPECT_EQ(mine.Checksum(), owned_oracle.Checksum());
}

// Every shape reads the rows it observes off the summary of the whole
// group table, so a caller's table that already held rows moves the
// observed selectivity the same way whichever shape ran: the fused join,
// the two-phase join, the group-by driver under a pure scan, and the fused
// pipeline under a filtered one.
TEST(PlanTest, GroupByIntoObservesTableRowsOnEveryShape) {
  const JoinFixture fx(512, 4096, 0.5);
  const Relation prefill = MakeGroupByInput(64, 3, 29);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const auto observed = [&](const std::function<Plan(AggregateTable*)>& make,
                            const PlanOptions& opt) {
    AggregateTable table(4096, AggregateTable::Options{});
    RunGroupBy(exec, prefill, &table);
    return RunPlan(exec, make(&table), opt).run.plan.observed_selectivity;
  };
  const auto join = [&](AggregateTable* t) {
    return Plan::Scan(fx.s).HashJoin(fx.r).GroupByInto(t);
  };
  AggregateTable unused(1, AggregateTable::Options{});
  const auto shapes = PlanCompiler::Enumerate(join(&unused), PlanOptions{});
  ASSERT_EQ(shapes.size(), 2u);
  const double matches = static_cast<double>(fx.s.size()) / 2;
  for (const PlanShape shape : shapes) {
    PlanOptions opt;
    opt.shape = shape;
    EXPECT_DOUBLE_EQ(observed(join, opt),
                     (static_cast<double>(prefill.size()) + matches) /
                         static_cast<double>(fx.s.size()))
        << PlanShapeName(shape);
  }
  const double scan_rows = static_cast<double>(fx.s.size());
  const double want =
      (static_cast<double>(prefill.size()) + scan_rows) / scan_rows;
  const auto scan = [&](AggregateTable* t) {
    return Plan::Scan(fx.s).GroupByInto(t);
  };
  const auto filtered = [&](AggregateTable* t) {
    return Plan::Scan(fx.s)
        .Filter([](const Tuple&) { return true; })
        .GroupByInto(t);
  };
  EXPECT_DOUBLE_EQ(observed(scan, PlanOptions{}), want);
  EXPECT_DOUBLE_EQ(observed(filtered, PlanOptions{}), want);
}

// ------------------------------------------------------------ cost model --

TEST(PlanOptimizerTest, PlantedPriorsSteerTheChoice) {
  const JoinFixture fx(512, 4096, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const auto shapes = PlanCompiler::Enumerate(plan, PlanOptions{});
  ASSERT_GT(shapes.size(), 1u);
  // First runs: no priors -> each explores one shape and stores its prior.
  PlanResult first;
  for (size_t i = 0; i < shapes.size(); ++i) {
    first = RunPlan(exec, plan);
    EXPECT_FALSE(first.run.plan.from_priors);
    EXPECT_EQ(first.run.plan.candidates_considered, shapes.size());
    EXPECT_GT(first.run.plan.measured_cost_cycles, 0.0);
  }
  // Next run: priors now exist for every shape.
  const PlanResult second = RunPlan(exec, plan);
  EXPECT_TRUE(second.run.plan.from_priors);
  EXPECT_GT(second.run.plan.estimated_cost_cycles, 0.0);
  EXPECT_EQ(second.run.checksum, first.run.checksum);
}

// With no priors, each shape runs once at full size, in enumeration order,
// before any run decides from priors; then the cheaper of the two explored
// runs is chosen, so a costlier first pick is not run again.
TEST(PlanOptimizerTest, ExploresEachShapeOnceAtFullSize) {
  const JoinFixture fx(512, 4096, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  const uint64_t n = fx.s.size();
  for (const uint32_t threads : {1u, 4u}) {
    Executor exec = MakeExec(ExecPolicy::kAmac, 10, threads);
    const auto shapes = PlanCompiler::Enumerate(plan, PlanOptions{});
    ASSERT_EQ(shapes.size(), 2u);
    std::vector<PlanResult> explored;
    for (const PlanShape shape : shapes) {
      PlanResult got = RunPlan(exec, plan);
      EXPECT_FALSE(got.run.plan.from_priors) << threads;
      EXPECT_EQ(got.run.plan.shape, shape) << threads;
      EXPECT_EQ(got.run.inputs, n) << threads;
      // The stored prior is this full run's cost.
      const auto prior =
          exec.calibrator().PeekResult(PlanShapeSignature(plan, shape), n);
      ASSERT_TRUE(prior.has_value()) << threads;
      EXPECT_DOUBLE_EQ(prior->winner_cycles_per_input,
                       got.run.plan.measured_cost_cycles /
                           static_cast<double>(n))
          << threads;
      explored.push_back(std::move(got));
    }
    const size_t cheaper = explored[1].run.plan.measured_cost_cycles <
                                   explored[0].run.plan.measured_cost_cycles
                               ? 1
                               : 0;
    const PlanResult decided = RunPlan(exec, plan);
    EXPECT_TRUE(decided.run.plan.from_priors) << threads;
    EXPECT_EQ(decided.run.plan.shape, shapes[cheaper]) << threads;
    for (const PlanResult& e : explored) {
      EXPECT_EQ(e.run.outputs, decided.run.outputs) << threads;
      EXPECT_EQ(e.run.checksum, decided.run.checksum) << threads;
    }
  }
}

TEST(PlanOptimizerTest, FreshExecutorExploresAgain) {
  // A repeated plan decides from priors; plan-shape priors live in the
  // Executor's calibrator, so a fresh Executor has none and explores
  // again.  Every path produces the same checksum.
  const JoinFixture fx(512, 4096, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  RunPlan(exec, plan);
  RunPlan(exec, plan);
  const PlanResult cached = RunPlan(exec, plan);
  EXPECT_TRUE(cached.run.plan.from_priors);
  Executor fresh = MakeExec(ExecPolicy::kAmac);
  const PlanResult after = RunPlan(fresh, plan);
  EXPECT_FALSE(after.run.plan.from_priors);
  EXPECT_EQ(after.run.checksum, cached.run.checksum);
}

// -------------------------------------------------------------- adapters --

TEST(PlanAdapterTest, RunHashJoinMatchesManualPhases) {
  const JoinFixture fx(1024, 8192, 0.7);
  Executor manual_exec = MakeExec(ExecPolicy::kAmac, 10, 2);
  ChainedHashTable table(fx.r.size(), ChainedHashTable::Options{});
  const RunStats build = BuildPhase(manual_exec, fx.r, &table);
  const RunStats probe = ProbePhase(manual_exec, table, fx.s, true);

  Executor exec = MakeExec(ExecPolicy::kAmac, 10, 2);
  const JoinResult join = RunHashJoin(exec, fx.r, fx.s);
  EXPECT_EQ(join.matches(), probe.outputs);
  EXPECT_EQ(join.checksum(), probe.checksum);
  EXPECT_EQ(join.build.inputs, build.inputs);
}

TEST(PlanSubmitTest, SchedulerPlansMatchExecutorPlans) {
  const JoinFixture fx(512, 4096, 0.6);
  ChainedHashTable table(fx.r.size(), ChainedHashTable::Options{});
  Executor exec = MakeExec(ExecPolicy::kAmac, 10, 2);
  BuildPhase(exec, fx.r, &table);
  const Plan plan = Plan::Scan(fx.s)
                        .Filter([](const Tuple& t) { return t.key % 2 == 0; })
                        .Lookup(table);
  const RunStats via_exec = exec.Run(plan);

  QuerySchedulerOptions sopt;
  sopt.num_workers = 2;
  QueryScheduler sched(sopt);
  QueryOptions qopt;
  qopt.policy = ExecPolicy::kAmac;
  const QueryStats via_sched = sched.Wait(Submit(sched, plan, qopt));
  EXPECT_EQ(via_sched.run.outputs, via_exec.outputs);
  EXPECT_EQ(via_sched.run.checksum, via_exec.checksum);
  EXPECT_TRUE(via_sched.run.plan.active);
}

// ---------------------------------------------------- calibrator staleness --

TEST(CalibratorStalenessTest, CardinalityBucketMismatchEvicts) {
  Calibrator cal;
  const WorkloadSignature sig = WorkloadSignature::Make("bucket-test", 1, 8);
  CalibrationResult result;
  result.winner_cycles_per_input = 5.0;
  cal.Store(sig, result);
  // Same signature, consistent size: fine (bucket(1) == bucket(1)).
  const std::optional<CalibrationResult> fresh = cal.PeekResult(sig, 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->winner_cycles_per_input, 5.0);
  // Reused across a much larger relation: stale, evicted.
  EXPECT_FALSE(cal.PeekResult(sig, 1 << 20).has_value());
  EXPECT_EQ(cal.stale_evictions(), 1u);
  EXPECT_FALSE(cal.Lookup(sig).has_value());
}

// ------------------------------------------------- selectivity costing --

TEST(PlanSelectivityTest, ExplorationObservesSelectivity) {
  const JoinFixture fx(512, 4096, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const PlanResult first = RunPlan(exec, plan);
  // Terminal rows per probe row: the fixture's planted 0.5 match rate.
  EXPECT_NEAR(first.run.plan.observed_selectivity, 0.5, 0.1);
  // The explored shape banked the observation with its prior.
  const auto prior = exec.calibrator().PeekResult(
      PlanShapeSignature(plan, first.run.plan.shape), fx.s.size());
  ASSERT_TRUE(prior.has_value());
  EXPECT_DOUBLE_EQ(prior->observed_selectivity,
                   first.run.plan.observed_selectivity);
}

TEST(PlanSelectivityTest, RegimeDropFlipsChoiceToTwoPhase) {
  const JoinFixture fx(512, 4096, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const auto shapes = PlanCompiler::Enumerate(plan, PlanOptions{});
  ASSERT_EQ(shapes.size(), 2u);
  ASSERT_EQ(shapes[1], PlanShape::kTwoPhase);
  Calibrator& cal = exec.calibrator();
  const auto plant = [&](PlanShape shape, double cpi,
                         double sel) {
    CalibrationResult r;
    r.winner_cycles_per_input = cpi;
    r.observed_selectivity = sel;
    cal.Store(PlanShapeSignature(plan, shape), r);
  };
  // Same-regime priors: fused (10 c/row) beats two-phase (12 c/row).
  plant(shapes[0], 10, 0.5);
  plant(shapes[1], 12, 0.5);
  const PlanResult same = RunPlan(exec, plan);
  EXPECT_TRUE(same.run.plan.from_priors);
  EXPECT_EQ(same.run.plan.shape, PlanShape::kFused);

  // The data's match rate collapses 10x below the regime the two-phase
  // prior was measured under: its per-survivor half rescales to
  // 12 * (0.5 + 0.5 * 0.1) = 6.6 c/row < 10, so the choice flips —
  // without re-measuring anything.
  plant(shapes[0], 10, 0.05);
  plant(shapes[1], 12, 0.5);
  const PlanResult flipped = RunPlan(exec, plan);
  EXPECT_TRUE(flipped.run.plan.from_priors);
  EXPECT_EQ(flipped.run.plan.shape, PlanShape::kTwoPhase);
  // Same answer either way: the flip is purely a performance decision.
  EXPECT_EQ(flipped.run.checksum, same.run.checksum);
  EXPECT_EQ(flipped.run.outputs, same.run.outputs);
}

TEST(PlanSelectivityTest, MissingSelectivityLeavesCostUnscaled) {
  const JoinFixture fx(512, 4096, 0.5);
  const Plan plan = JoinGroupByPlan(fx, 1024);
  Executor exec = MakeExec(ExecPolicy::kAmac);
  const auto shapes = PlanCompiler::Enumerate(plan, PlanOptions{});
  ASSERT_EQ(shapes.size(), 2u);
  Calibrator& cal = exec.calibrator();
  const auto plant = [&](PlanShape shape, double cpi) {
    CalibrationResult r;  // observed_selectivity stays -1 (unobserved)
    r.winner_cycles_per_input = cpi;
    cal.Store(PlanShapeSignature(plan, shape), r);
  };
  plant(shapes[0], 10);
  plant(shapes[1], 8);
  const PlanResult res = RunPlan(exec, plan);
  EXPECT_TRUE(res.run.plan.from_priors);
  // No stored selectivity: pure cpi * n comparison, two-phase's 8 wins.
  EXPECT_EQ(res.run.plan.shape, PlanShape::kTwoPhase);
  EXPECT_DOUBLE_EQ(res.run.plan.estimated_cost_cycles, 8.0 * 4096);
}

}  // namespace
}  // namespace amac
