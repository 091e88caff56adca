// Figure 12: hash join and group-by on the SPARC T4 (single hardware
// context).  MODELED: no SPARC hardware is available, so the T4 run is the
// memsim machine model (2-wide cores, higher memory latency) replaying
// walk-length traces from the real x86-built data structures.  See
// DESIGN.md substitution #4.
//
// MEASURED addition (ISSUE 3, re-based on the plan layer in ISSUE 9): the
// same join+group-by pair run on THIS machine as one declarative plan
// (Scan -> Lookup -> GroupBy) with the shape dimension pinned fused vs
// two-phase (materialized intermediate), under all five ExecPolicies,
// plus one unpinned run where the cost-driven optimizer makes the call.
// The binary self-checks that every shape produces the identical
// aggregate table and exits nonzero on mismatch or zero throughput, so
// CI's bench-smoke job (--quick) keeps the plan layer honest.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/pipeline.h"
#include "groupby/groupby.h"
#include "memsim/memsim.h"
#include "memsim/workload.h"

namespace amac::bench {
namespace {

/// One measured fused-vs-two-phase point, for the optional JSON artifact.
struct FusedPoint {
  const char* policy;
  double fused_tps = 0;
  double two_phase_tps = 0;
};

/// Fused vs two-phase join+group-by, measured on this machine.  Both
/// columns are the SAME declarative plan (Scan -> Lookup -> GroupBy) with
/// the shape dimension pinned each way, so the comparison exercises
/// exactly the structural alternative the plan optimizer chooses between;
/// a final unpinned run checks that the optimizer lands on one of the two
/// shapes and reproduces the identical aggregate.  Returns false on any
/// divergence or zero throughput.  Fills `points` (one per policy) and
/// `chosen` (the optimizer's decision) when non-null.
bool FusedSection(const BenchArgs& args, uint32_t threads,
                  std::vector<FusedPoint>* points, PlanStats* chosen) {
  const PreparedJoin prepared =
      PrepareJoin(args.scale, args.scale, 0, 0, 67);
  const Relation& s = prepared.s;
  const uint64_t group_capacity = prepared.r.size() + 1;
  const Plan plan =
      Plan::Scan(s).Lookup(*prepared.table).GroupBy(group_capacity);
  PlanOptions fused_pin;
  fused_pin.shape = PlanShape::kFused;
  PlanOptions two_phase_pin;
  two_phase_pin.shape = PlanShape::kTwoPhase;

  TablePrinter fused_table(
      "Fig 12 MEASURED on this machine: fused join->group-by (one "
      "pipeline, " + std::to_string(threads) + " thread(s)) vs two-phase "
      "(materialized intermediate), Mtuples/s",
      {"policy", "fused", "two-phase", "fused speedup"});

  bool ok = true;
  uint64_t checksum = 0;
  Executor exec(ExecConfig{ExecPolicy::kAmac,
                           SchedulerParams{args.inflight, 1, 0}, threads,
                           0});
  for (ExecPolicy policy : kAllExecPolicies) {
    exec.set_policy(policy);
    const PlanResult fused = MeasurePlan(exec, plan, fused_pin, args.reps);
    const PlanResult two_phase =
        MeasurePlan(exec, plan, two_phase_pin, args.reps);
    const double fused_tps = fused.run.Throughput();
    const double two_phase_tps = two_phase.run.Throughput();
    checksum = fused.run.checksum;

    fused_table.AddRow(
        {SeriesName(policy), TablePrinter::Fmt(fused_tps / 1e6, 2),
         TablePrinter::Fmt(two_phase_tps / 1e6, 2),
         TablePrinter::Fmt(
             two_phase_tps > 0 ? fused_tps / two_phase_tps : 0, 2)});
    if (points != nullptr) {
      points->push_back({SeriesName(policy), fused_tps, two_phase_tps});
    }

    if (fused.run.checksum != two_phase.run.checksum ||
        fused.run.outputs != two_phase.run.outputs) {
      std::printf("ERROR: %s fused aggregate diverges from two-phase "
                  "(groups %llu vs %llu)\n",
                  ExecPolicyName(policy),
                  static_cast<unsigned long long>(fused.run.outputs),
                  static_cast<unsigned long long>(two_phase.run.outputs));
      ok = false;
    }
    if (fused_tps <= 0) {
      std::printf("ERROR: %s fused throughput is zero\n",
                  ExecPolicyName(policy));
      ok = false;
    }
  }
  fused_table.Print();

  // Unpinned: the optimizer must consider both shapes (one exploring run
  // each, priors after) and reproduce the same aggregate.
  exec.set_policy(ExecPolicy::kAmac);
  const PlanResult auto_run =
      MeasurePlan(exec, plan, PlanOptions{}, std::max(3u, args.reps));
  if (!auto_run.run.plan.active ||
      auto_run.run.plan.candidates_considered != 2 ||
      auto_run.run.checksum != checksum) {
    std::printf("ERROR: optimizer run diverged (active=%d candidates=%u)\n",
                auto_run.run.plan.active ? 1 : 0,
                auto_run.run.plan.candidates_considered);
    ok = false;
  }
  std::printf("plan optimizer (AMAC): chose %s of 2 shapes, %.2f "
              "Mtuples/s%s\n",
              PlanShapeName(auto_run.run.plan.shape),
              auto_run.run.Throughput() / 1e6,
              auto_run.run.plan.from_priors ? " (from priors)" : "");
  if (chosen != nullptr) *chosen = auto_run.run.plan;
  return ok;
}

void SimRow(TablePrinter* table, const std::string& label,
            const std::vector<uint32_t>& lengths, uint32_t inflight,
            uint32_t stages) {
  const memsim::MachineConfig machine = memsim::MachineConfig::SparcT4();
  std::vector<std::string> row{label};
  for (ExecPolicy policy : kPaperPolicies) {
    memsim::SimConfig config;
    config.policy = policy;
    config.inflight = inflight;
    config.stages = stages;
    config.num_threads = 1;
    config.lookups_per_thread = 20000;
    config.chain_lengths = &lengths;
    const memsim::SimResult r = memsim::Simulate(machine, config);
    row.push_back(TablePrinter::Fmt(
        static_cast<double>(r.cycles) / static_cast<double>(r.lookups), 1));
  }
  table->AddRow(row);
}

/// Write the measured fused-section series as a machine-readable JSON
/// artifact (CI's perf trajectory: BENCH_fig12.json).
bool WriteJson(const std::string& path, uint64_t scale, uint32_t threads,
               const std::vector<FusedPoint>& points,
               const PlanStats& chosen) {
  JsonWriter json(path, "fig12_fused_join_groupby");
  json.Field("scale", scale);
  json.Field("threads", threads);
  PlanJsonFields(&json, chosen);
  json.BeginSeries();
  for (const FusedPoint& point : points) {
    json.BeginPoint();
    json.Field("policy", std::string(point.policy));
    json.Field("fused_tuples_per_sec", point.fused_tps);
    json.Field("two_phase_tuples_per_sec", point.two_phase_tps);
  }
  return json.Close();
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineBool("quick", false,
                        "CI smoke mode: small scale, fused section only");
  args.flags.DefineInt("threads", 1,
                       "threads for the measured fused section");
  args.flags.DefineString("json", "",
                          "write the fused-section throughput series as "
                          "JSON to this path");
  args.Define(/*default_scale_log2=*/18);
  args.Parse(argc, argv);
  const bool quick = args.flags.GetBool("quick");
  if (quick) {
    args.scale = uint64_t{1} << 12;
    args.reps = 1;
  }
  const uint32_t threads = static_cast<uint32_t>(
      std::max<int64_t>(1, args.flags.GetInt("threads")));

  PrintHeader("Figure 12 (hash join & group-by, SPARC T4, 1 context)",
              quick ? "CI smoke (--quick): MEASURED fused vs two-phase "
                      "self-check only, scale 2^12"
                    : "MEASURED fused vs two-phase on this machine, then "
                      "MODELED on memsim T4 with traces from real tables "
                      "at 2^" +
                          std::to_string(args.flags.GetInt("scale_log2")));

  std::vector<FusedPoint> points;
  PlanStats chosen;
  bool fused_ok = FusedSection(args, threads, &points, &chosen);
  const std::string json_path = args.flags.GetString("json");
  if (!json_path.empty()) {
    fused_ok =
        WriteJson(json_path, args.scale, threads, points, chosen) && fused_ok;
  }
  if (quick) return fused_ok ? 0 : 1;

  // (a) Hash join probe.
  TablePrinter join_table(
      "Fig 12a: modeled probe cycles per tuple, T4",
      {"skew", "Baseline", "GP", "SPP", "AMAC"});
  const double kSkews[][2] = {{0, 0}, {0.5, 0.5}, {1, 1}};
  for (const auto& skew : kSkews) {
    const double zr = skew[0], zs = skew[1];
    const PreparedJoin prepared = PrepareJoin(
        args.scale, args.scale, zr, zs,
        static_cast<uint64_t>(37 + zr * 10 + zs * 100));
    const auto lengths = memsim::CollectWalkLengths(
        *prepared.table, prepared.s, /*early_exit=*/true);
    SimRow(&join_table, SkewLabel(zr, zs), lengths, args.inflight,
           zr == 0.0 ? 1 : 2);
  }
  join_table.Print();

  // (b) Group-by: trace = chain nodes visited per input tuple against the
  // populated aggregation table.
  const double kThetas[] = {0.0, 0.5, 1.0};
  TablePrinter gb(
      "Fig 12b: modeled group-by cycles per tuple, T4",
      {"skew", "Baseline", "GP", "SPP", "AMAC"});
  for (double theta : kThetas) {
    const uint64_t tuples = args.scale;
    const Relation input =
        theta == 0.0
            ? MakeGroupByInput(tuples / 3, 3, 41)
            : MakeZipfRelation(tuples, tuples / 3, theta, 42);
    AggregateTable agg(tuples / 3 * 2, AggregateTable::Options{});
    Executor trace_exec(
        ExecConfig{ExecPolicy::kSequential, SchedulerParams{}, 1, 0});
    RunGroupBy(trace_exec, input, &agg);
    const auto lengths = memsim::CollectGroupByWalkLengths(agg, input);
    SimRow(&gb, theta == 0.0 ? "uniform"
                             : "Zipf(" + TablePrinter::Fmt(theta, 1) + ")",
           lengths, args.inflight, 1);
  }
  gb.Print();
  std::printf(
      "expected shape: all prefetchers ~1.5-2.3x over Baseline; AMAC most "
      "consistent; absolute gains smaller than Xeon (2-wide T4 core); "
      "fused >= two-phase (no intermediate materialization, one ramp).\n");
  return fused_ok ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
