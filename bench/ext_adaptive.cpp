// Adaptive extension: ExecPolicy::kAdaptive vs the static-policy oracle
// grid, across every workload family the runtime serves.
//
// The paper's sensitivity results say there is no single best schedule:
// the winner flips with the data structure, hit rate, skew, and
// contention.  This bench quantifies what the adaptive governor buys on
// top of that observation — for each workload it measures every static
// policy (the oracle grid the governor searches), then the governed run,
// and reports "adaptive within X% of oracle-best everywhere, no hand
// tuning".  The adaptive executor warms its calibration cache on one
// untimed run, so the measured repetitions show steady state (cache hit +
// epsilon exploration), exactly how a serving system would see it.
//
// Every run is verified against a solo sequential oracle
// (schedule-independent outputs/checksums), and the binary exits nonzero
// on divergence, zero throughput, or adaptive < 0.5x best-static — the
// CI bench-smoke contract (--quick).
//
//   --quick       CI smoke: scale 2^14, fewer reps
//   --threads=N   executor/scheduler width (0 = min(4, hardware))
//   --json=PATH   machine-readable series (BENCH_ext_adaptive.json)
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cycle_timer.h"
#include "common/table_printer.h"
#include "core/pipeline.h"
#include "server/query_scheduler.h"

namespace amac::bench {
namespace {

/// One measured run: timing plus the schedule-independent result.
struct Outcome {
  double seconds = 0;
  uint64_t inputs = 0;
  uint64_t outputs = 0;
  uint64_t checksum = 0;
  uint64_t vec_fallbacks = 0;
  AdaptiveStats adaptive;
  PerfCounters::Sample perf;

  double Throughput() const {
    return seconds > 0 ? static_cast<double>(inputs) / seconds : 0;
  }
};

/// A workload family: `run` executes one repetition on the given executor
/// (allocating any per-run state, e.g. a fresh AggregateTable).
struct AdaptiveWorkload {
  std::string name;
  std::function<Outcome(Executor&)> run;
};

/// Shared inputs for every workload family.
struct Datasets {
  PreparedJoin uniform;      ///< dense R, FK S
  PreparedJoin zipf;         ///< skewed build and probe keys
  Relation gb_input;
  Relation idx_probe;
  std::unique_ptr<SkipList> slist;
  std::unique_ptr<CsrGraph> graph;
  uint64_t group_capacity = 0;
  uint64_t walkers = 0;
};

Datasets PrepareDatasets(uint64_t scale) {
  Datasets d;
  d.uniform = PrepareJoin(scale, scale, 0, 0, 1301);
  d.zipf = PrepareJoin(scale, scale, 0.75, 0.75, 1302);
  d.gb_input = MakeZipfRelation(scale, scale / 8 + 1, 0.6, 1303);
  d.idx_probe = MakeZipfRelation(scale, 2 * scale, 0.3, 1304);
  d.slist = BuildSkipList(MakeDenseUniqueRelation(scale, 1306), 1305);
  d.graph = MakeWalkGraph(scale, 1307);
  d.walkers = scale;
  d.group_capacity = scale + 1;
  return d;
}

std::vector<AdaptiveWorkload> BuildWorkloads(const Datasets& d) {
  const auto sink_outcome = [](const RunStats& run) {
    Outcome out;
    out.seconds = run.seconds;
    out.inputs = run.inputs;
    out.outputs = run.outputs;
    out.checksum = run.checksum;
    out.vec_fallbacks = run.engine.vec_fallbacks;
    out.adaptive = run.adaptive;
    out.perf = run.perf;
    return out;
  };
  // Every family is a declarative Plan; Executor::Run(Plan) fills the
  // group-by outputs/checksum itself, so no per-family accounting remains.
  std::vector<AdaptiveWorkload> workloads;
  workloads.push_back({"probe-uniform", [&d, sink_outcome](Executor& exec) {
    return sink_outcome(
        exec.Run(Plan::Scan(d.uniform.s).Lookup(*d.uniform.table)));
  }});
  workloads.push_back({"probe-zipf", [&d, sink_outcome](Executor& exec) {
    return sink_outcome(
        exec.Run(Plan::Scan(d.zipf.s).Lookup(*d.zipf.table)));
  }});
  workloads.push_back({"group-by", [&d, sink_outcome](Executor& exec) {
    AggregateTable agg(d.group_capacity, AggregateTable::Options{});
    return sink_outcome(exec.Run(Plan::Scan(d.gb_input).GroupByInto(&agg)));
  }});
  workloads.push_back({"skiplist", [&d, sink_outcome](Executor& exec) {
    return sink_outcome(
        exec.Run(Plan::Scan(d.idx_probe).LookupSkipList(*d.slist)));
  }});
  workloads.push_back({"walks", [&d, sink_outcome](Executor& exec) {
    return sink_outcome(exec.Run(Plan::Walks(*d.graph, d.walkers, 8, 1308)));
  }});
  workloads.push_back({"fused-join-gb", [&d, sink_outcome](Executor& exec) {
    // The shape is pinned fused here: this grid compares SCHEDULES on a
    // fixed plan shape (the structural section below lets the optimizer
    // pick the shape itself).
    AggregateTable agg(d.group_capacity, AggregateTable::Options{});
    PlanOptions pin;
    pin.shape = PlanShape::kFused;
    return sink_outcome(RunPlan(exec,
                                Plan::Scan(d.uniform.s)
                                    .Lookup(*d.uniform.table)
                                    .GroupByInto(&agg),
                                pin)
                            .run);
  }});
  return workloads;
}

/// Best-of-reps measurement; `warmups` untimed runs first (the adaptive
/// executor calibrates there, so measured reps ride the cache).
Outcome Measure(Executor& exec, const AdaptiveWorkload& workload,
                uint32_t reps, uint32_t warmups) {
  for (uint32_t i = 0; i < warmups; ++i) workload.run(exec);
  Outcome best;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    const Outcome out = workload.run(exec);
    if (rep == 0 || (out.seconds > 0 && out.seconds < best.seconds)) {
      best = out;
    }
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineBool("quick", false,
                        "CI smoke: scale 2^14, fewer reps");
  args.flags.DefineInt("threads", 0,
                       "executor width (0 = min(4, hardware threads))");
  args.flags.DefineString("json", "",
                          "write the adaptive-vs-oracle series as JSON to "
                          "this path");
  args.Define(/*default_scale_log2=*/18);
  args.Parse(argc, argv);
  const bool quick = args.flags.GetBool("quick");
  if (quick) {
    args.scale = uint64_t{1} << 14;
    // 3 reps: min-of-reps denoises the 0.5x CI floor on loaded shared
    // runners (the adaptive measurement rides the calibration cache, so
    // extra reps are cheap).
    args.reps = 3;
  }
  uint32_t threads = static_cast<uint32_t>(args.flags.GetInt("threads"));
  if (threads == 0) {
    threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }

  PrintHeader(
      "Adaptive extension: kAdaptive vs the static-policy oracle grid",
      (quick ? std::string("CI smoke (--quick): scale 2^14")
             : "scale 2^" + std::to_string(args.flags.GetInt("scale_log2"))) +
          ", " + std::to_string(threads) + " thread(s), M=" +
          std::to_string(args.inflight) +
          " for static policies; adaptive searches policy x {4,10,16,32}");

  Datasets d = PrepareDatasets(args.scale);
  const std::vector<AdaptiveWorkload> workloads = BuildWorkloads(d);

  const std::string json_path = args.flags.GetString("json");
  std::unique_ptr<JsonWriter> json;
  if (!json_path.empty()) {
    json = std::make_unique<JsonWriter>(json_path, "ext_adaptive");
    json->Field("scale", args.scale);
    json->Field("threads", threads);
    json->BeginSeries();
  }

  TablePrinter table(
      "ext_adaptive: adaptive vs best/worst static throughput (Minputs/s, " +
          std::to_string(threads) + " thread(s))",
      {"workload", "adaptive", "best static", "worst static", "vs best",
       "chosen", "switches"});
  bool ok = true;
  const SchedulerParams static_params{args.inflight, 2, 0};
  for (const AdaptiveWorkload& workload : workloads) {
    // Sequential solo oracle: the result every schedule must reproduce.
    Executor oracle_exec(
        ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
    const Outcome oracle = Measure(oracle_exec, workload, 1, 0);

    // The static-policy oracle grid at the paper's default M.
    double best_static = 0, worst_static = 0;
    const char* best_policy = "?";
    for (ExecPolicy policy : kAllExecPolicies) {
      Executor exec(ExecConfig{policy, static_params, threads, 0});
      const Outcome out = Measure(exec, workload, args.reps, 0);
      if (out.outputs != oracle.outputs ||
          out.checksum != oracle.checksum) {
        std::printf("ERROR: %s %s diverges from the sequential oracle\n",
                    workload.name.c_str(), ExecPolicyName(policy));
        ok = false;
      }
      const double tput = out.Throughput();
      if (best_static == 0 || tput > best_static) {
        best_static = tput;
        best_policy = SeriesName(policy);
      }
      if (worst_static == 0 || tput < worst_static) worst_static = tput;
    }

    // The governed run: one warmup (calibration) + measured cache-hit reps.
    Executor adaptive_exec(
        ExecConfig{ExecPolicy::kAdaptive, static_params, threads, 0});
    const Outcome adaptive = Measure(adaptive_exec, workload, args.reps, 1);
    if (adaptive.outputs != oracle.outputs ||
        adaptive.checksum != oracle.checksum) {
      std::printf("ERROR: %s adaptive diverges from the sequential oracle\n",
                  workload.name.c_str());
      ok = false;
    }
    if (!adaptive.adaptive.active || !adaptive.adaptive.cache_hit) {
      std::printf("ERROR: %s adaptive run did not report a governed "
                  "cache-hit execution\n",
                  workload.name.c_str());
      ok = false;
    }
    const double adaptive_tput = adaptive.Throughput();
    const double ratio =
        best_static > 0 ? adaptive_tput / best_static : 0;
    if (adaptive_tput <= 0) {
      std::printf("ERROR: %s adaptive throughput is zero\n",
                  workload.name.c_str());
      ok = false;
    } else if (ratio < 0.5) {
      std::printf("ERROR: %s adaptive is %.2fx best-static (< 0.5x)\n",
                  workload.name.c_str(), ratio);
      ok = false;
    }

    table.AddRow({workload.name, TablePrinter::Fmt(adaptive_tput / 1e6, 2),
                  TablePrinter::Fmt(best_static / 1e6, 2),
                  TablePrinter::Fmt(worst_static / 1e6, 2),
                  TablePrinter::Fmt(ratio, 2),
                  std::string(ExecPolicyName(
                      adaptive.adaptive.chosen_policy)) +
                      "/" +
                      std::to_string(adaptive.adaptive.chosen_inflight),
                  std::to_string(adaptive.adaptive.tuning_switches)});
    if (json) {
      json->BeginPoint();
      json->Field("workload", workload.name);
      json->Field("adaptive_inputs_per_sec", adaptive_tput);
      json->Field("best_static_inputs_per_sec", best_static);
      json->Field("worst_static_inputs_per_sec", worst_static);
      json->Field("best_static_policy", std::string(best_policy));
      json->Field("adaptive_vs_best", ratio);
      json->Field("chosen_policy",
                  std::string(
                      ExecPolicyName(adaptive.adaptive.chosen_policy)));
      json->Field("chosen_inflight", adaptive.adaptive.chosen_inflight);
      json->Field("tuning_switches", adaptive.adaptive.tuning_switches);
      json->Field("vec_fallbacks", adaptive.vec_fallbacks);
      PerfJsonFields(json.get(), adaptive.perf);
    }
  }
  table.Print();

  // ---- Mixed concurrent serving: governed queries on one shared pool ----
  // The same shapes submitted concurrently through a QueryScheduler, the
  // adaptive path vs the best single hand-picked static policy.  Every
  // completed query is checked against its solo sequential oracle.
  struct ServingOracle {
    uint64_t outputs;
    uint64_t checksum;
  };
  std::vector<ServingOracle> serving_oracles;
  for (const RunStats& run :
       {SoloRun(Plan::Scan(d.uniform.s).Lookup(*d.uniform.table)),
        SoloRun(Plan::Scan(d.idx_probe).LookupSkipList(*d.slist)),
        SoloRun(Plan::Walks(*d.graph, d.walkers, 8, 1308))}) {
    serving_oracles.push_back({run.outputs, run.checksum});
  }
  const uint32_t rounds = quick ? 2 : 4;
  const auto run_serving = [&](ExecPolicy policy,
                               uint64_t* vec_fallbacks_out = nullptr,
                               PerfCounters::Sample* perf_out = nullptr) {
    QueryScheduler sched(
        QuerySchedulerOptions{threads, 2 * threads, AdmissionOrder::kFifo});
    QueryOptions options;
    options.policy = policy;
    options.params = static_params;
    uint64_t queries = 0, divergent = 0, vec_fallbacks = 0;
    WallTimer wall;
    for (uint32_t r = 0; r < rounds; ++r) {
      std::vector<QueryTicket> tickets;
      tickets.push_back(Submit(
          sched, Plan::Scan(d.uniform.s).Lookup(*d.uniform.table), options));
      tickets.push_back(Submit(
          sched, Plan::Scan(d.idx_probe).LookupSkipList(*d.slist), options));
      tickets.push_back(
          Submit(sched, Plan::Walks(*d.graph, d.walkers, 8, 1308), options));
      queries += tickets.size();
      for (size_t i = 0; i < tickets.size(); ++i) {
        const QueryStats q = sched.Wait(tickets[i]);
        vec_fallbacks += q.run.engine.vec_fallbacks;
        if (perf_out != nullptr) perf_out->Merge(q.run.perf);
        if (q.run.outputs != serving_oracles[i].outputs ||
            q.run.checksum != serving_oracles[i].checksum) {
          ++divergent;
        }
      }
    }
    const double seconds = wall.ElapsedSeconds();
    const ServingStats serving = sched.serving_stats();
    if (serving.completed != queries) {
      std::printf("ERROR: serving-mix completed %llu of %llu queries\n",
                  static_cast<unsigned long long>(serving.completed),
                  static_cast<unsigned long long>(queries));
      ok = false;
    }
    if (divergent > 0) {
      std::printf("ERROR: serving-mix (%s): %llu queries diverged from "
                  "the solo oracle\n",
                  ExecPolicyName(policy),
                  static_cast<unsigned long long>(divergent));
      ok = false;
    }
    if (vec_fallbacks_out != nullptr) *vec_fallbacks_out = vec_fallbacks;
    return seconds > 0 ? static_cast<double>(queries) / seconds : 0;
  };

  double best_serving = 0;
  const char* best_serving_policy = "?";
  for (ExecPolicy policy : kAllExecPolicies) {
    const double qps = run_serving(policy);
    if (qps > best_serving) {
      best_serving = qps;
      best_serving_policy = SeriesName(policy);
    }
  }
  uint64_t serving_vec_fallbacks = 0;
  PerfCounters::Sample serving_perf;
  const double adaptive_serving = run_serving(
      ExecPolicy::kAdaptive, &serving_vec_fallbacks, &serving_perf);
  const double serving_ratio =
      best_serving > 0 ? adaptive_serving / best_serving : 0;
  std::printf(
      "serving-mix: adaptive %.1f q/s vs best static (%s) %.1f q/s "
      "(%.2fx)\n",
      adaptive_serving, best_serving_policy, best_serving, serving_ratio);
  if (adaptive_serving <= 0 || serving_ratio < 0.5) {
    std::printf("ERROR: serving-mix adaptive is %.2fx best-static\n",
                serving_ratio);
    ok = false;
  }
  if (json) {
    json->BeginPoint();
    json->Field("workload", std::string("serving-mix"));
    json->Field("adaptive_queries_per_sec", adaptive_serving);
    json->Field("best_static_queries_per_sec", best_serving);
    json->Field("best_static_policy", std::string(best_serving_policy));
    json->Field("adaptive_vs_best", serving_ratio);
    json->Field("vec_fallbacks", serving_vec_fallbacks);
    PerfJsonFields(json.get(), serving_perf);
  }

  // ---- Structural adaptivity: the plan optimizer across the fig12
  // crossover ----
  // The schedule grid above holds the plan SHAPE fixed and varies the
  // schedule; this section holds the schedule fixed (AMAC) and lets the
  // plan optimizer pick the shape.  One declarative plan
  // (Scan -> Lookup -> GroupBy) runs on both sides of the join's
  // selectivity crossover: a full-hit probe, where fusing the aggregate
  // into the probe avoids materializing every row, and a 1/16-hit probe,
  // where the join filters hard and two-phase aggregates a tiny
  // intermediate.  The optimizer must reproduce the sequential oracle's
  // aggregate bit for bit and land within 0.9x of the better pinned shape
  // — the structural analogue of the 0.5x schedule floor above.
  {
    Relation sparse(d.uniform.s.size());
    for (uint64_t i = 0; i < sparse.size(); ++i) {
      sparse[i] = d.uniform.s[i];
      if (i % 16 != 0) {
        // Dense unique R holds keys [1, |R|]; anything above misses.
        sparse[i].key = static_cast<int64_t>(d.uniform.r.size() + 1 + i);
      }
    }
    const struct {
      const char* name;
      const Relation* probe;
    } ends[] = {{"structural-dense", &d.uniform.s},
                {"structural-sparse", &sparse}};
    TablePrinter structural_table(
        "structural adaptivity: plan optimizer vs pinned shapes "
        "(Minputs/s, AMAC, " + std::to_string(threads) + " thread(s))",
        {"probe", "fused", "two-phase", "optimizer", "chosen", "vs best"});
    PlanOptions fused_pin;
    fused_pin.shape = PlanShape::kFused;
    PlanOptions two_phase_pin;
    two_phase_pin.shape = PlanShape::kTwoPhase;
    for (const auto& end : ends) {
      const Plan plan = Plan::Scan(*end.probe)
                            .Lookup(*d.uniform.table)
                            .GroupBy(d.group_capacity);
      const RunStats oracle = SoloRun(plan, fused_pin);
      Executor exec(
          ExecConfig{ExecPolicy::kAmac, static_params, threads, 0});
      // Untimed runs explore each shape once and store its prior (the
      // same warmup discipline as the schedule grid above); the measured
      // reps then ride — and keep self-correcting — the priors.
      for (size_t i = 0; i < PlanCompiler::Enumerate(plan, {}).size(); ++i) {
        (void)RunPlan(exec, plan, PlanOptions{});
      }
      // Interleave the three arms rep by rep and take minima: comparing
      // minima of disjoint time windows lets one load burst on a shared
      // runner sink a single arm, which is what made the 0.9x gate flaky.
      const uint32_t reps = std::max(7u, args.reps);
      PlanResult fused, two_phase, chosen;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        PlanResult f = RunPlan(exec, plan, fused_pin);
        if (rep == 0 || f.TotalCycles() < fused.TotalCycles()) {
          fused = std::move(f);
        }
        PlanResult t = RunPlan(exec, plan, two_phase_pin);
        if (rep == 0 || t.TotalCycles() < two_phase.TotalCycles()) {
          two_phase = std::move(t);
        }
        PlanResult c = RunPlan(exec, plan, PlanOptions{});
        if (rep == 0 || c.TotalCycles() < chosen.TotalCycles()) {
          chosen = std::move(c);
        }
      }
      const double best_pinned =
          std::max(fused.run.Throughput(), two_phase.run.Throughput());
      const double chosen_tput = chosen.run.Throughput();
      const double ratio =
          best_pinned > 0 ? chosen_tput / best_pinned : 0;
      for (const PlanResult* r : {&fused, &two_phase, &chosen}) {
        if (r->run.outputs != oracle.outputs ||
            r->run.checksum != oracle.checksum) {
          std::printf("ERROR: %s shape diverges from the sequential "
                      "oracle\n", end.name);
          ok = false;
        }
      }
      if (!chosen.run.plan.active ||
          chosen.run.plan.candidates_considered != 2) {
        std::printf("ERROR: %s optimizer saw %u shapes (want 2)\n",
                    end.name, chosen.run.plan.candidates_considered);
        ok = false;
      }
      if (chosen_tput <= 0 || ratio < 0.9) {
        std::printf("ERROR: %s optimizer is %.2fx the best pinned shape "
                    "(< 0.9x)\n", end.name, ratio);
        ok = false;
      }
      structural_table.AddRow(
          {end.name, TablePrinter::Fmt(fused.run.Throughput() / 1e6, 2),
           TablePrinter::Fmt(two_phase.run.Throughput() / 1e6, 2),
           TablePrinter::Fmt(chosen_tput / 1e6, 2),
           PlanShapeName(chosen.run.plan.shape),
           TablePrinter::Fmt(ratio, 2)});
      if (json) {
        json->BeginPoint();
        json->Field("workload", std::string(end.name));
        json->Field("fused_inputs_per_sec", fused.run.Throughput());
        json->Field("two_phase_inputs_per_sec", two_phase.run.Throughput());
        json->Field("optimizer_inputs_per_sec", chosen_tput);
        json->Field("optimizer_vs_best_pinned", ratio);
        PlanJsonFields(json.get(), chosen.run.plan);
        PerfJsonFields(json.get(), chosen.run.perf);
      }
    }
    structural_table.Print();
  }
  if (json) ok = json->Close() && ok;

  if (!quick) {
    std::printf(
        "expected shape: adaptive tracks the per-workload best static "
        "schedule (prefetching ones on pointer-chasing probes, Baseline "
        "where working sets fit in cache) without any hand tuning; the "
        "0.5x floor is the CI guardrail, steady state should sit well "
        "above 0.8x.\n");
  }
  std::printf("ext_adaptive: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
