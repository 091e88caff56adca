// ext_memsim: acceptance gates for the cache-hierarchy simulator and its
// sim-vs-measured grid ranking (EXPERIMENTS.md).
//
// Three gated sections, each tied to a claim the hierarchy model must
// uphold before its rankings can be trusted:
//
//  1. SCALING  — hierarchy-mode thread scaling on both machine presets
//     over a REAL hash-probe address trace reproduces the Fig 7/8 shape:
//     AMAC >= Baseline at every thread count, and on the GQ-limited Xeon
//     the AMAC/Baseline gap compresses as threads saturate the 32-entry
//     LLC queue (the crossover the paper measures).
//  2. PREFETCH — the modeled SPP prefetcher behaves like the literature
//     says it should: near-total coverage on a sequential stride stream,
//     materially lower coverage on a pointer-chase stream with no
//     learnable signature (the paper's irregularity premise — if the
//     model prefetched pointer chases, AMAC would have nothing to hide).
//  3. SEED     — RankGrid's simulated policy-grid ranking agrees
//     with real measured calibration on two workload families (hash
//     probe, skip list search): same argmax, or the sim winner measures
//     within 10% cycles-per-input of the measured best.
//
// Exit status is the number of failed gates (0 = all pass), so CI can run
// `ext_memsim --quick` as a smoke gate.  --json emits BENCH_ext_memsim.json
// with every point behind the gates.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "adaptive/calibrator.h"
#include "join/hash_join.h"
#include "memsim/cache/trace.h"
#include "memsim/memsim.h"
#include "memsim/rank_grid.h"
#include "skiplist/skiplist_ops.h"

namespace amac::bench {
namespace {

std::vector<std::string> g_failures;

void Gate(bool ok, const std::string& what) {
  if (!ok) g_failures.push_back(what);
  std::printf("  gate %-58s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
}

// ---------------------------------------------------------------------------
// Section 1: hierarchy-mode thread scaling (Fig 7/8 shape).
// ---------------------------------------------------------------------------

void ScalingSection(const memsim::AccessTrace& trace, bool quick,
                    uint64_t sim_lookups, JsonWriter* json) {
  struct MachinePlan {
    memsim::MachineConfig machine;
    std::vector<uint32_t> threads;
    bool gate_crossover;  ///< GQ-limited: expect the gap to compress
  };
  const std::vector<MachinePlan> plans = {
      {memsim::MachineConfig::XeonX5670(),
       quick ? std::vector<uint32_t>{1, 4, 12}
             : std::vector<uint32_t>{1, 2, 4, 6, 8, 12},
       true},
      {memsim::MachineConfig::SparcT4(),
       quick ? std::vector<uint32_t>{1, 8, 32}
             : std::vector<uint32_t>{1, 8, 32, 64},
       false},
  };

  for (const MachinePlan& plan : plans) {
    TablePrinter table(
        "ext_memsim scaling [" + plan.machine.name +
            "]: hierarchy-mode probe throughput (lookups/kilocycle)",
        {"threads", "Baseline", "GP", "SPP", "AMAC", "AMAC LLC miss%"});
    // AMAC/Baseline throughput ratio at the smallest and largest team —
    // the Xeon crossover gate compares these two.
    double first_ratio = 0, last_ratio = 0;
    bool amac_ge_baseline = true;
    for (uint32_t threads : plan.threads) {
      std::vector<std::string> row{std::to_string(threads)};
      double base_tpk = 0, amac_tpk = 0, amac_llc_miss = 0;
      for (ExecPolicy policy : kPaperPolicies) {
        memsim::SimConfig config;
        config.policy = policy;
        config.inflight = 10;
        config.stages = 2;
        config.num_threads = threads;
        config.lookups_per_thread = sim_lookups;
        config.trace = &trace;
        config.prefetcher = memsim::PrefetcherKind::kStride;
        const memsim::SimResult r = memsim::Simulate(plan.machine, config);
        const double tpk = r.ThroughputPerKilocycle();
        if (policy == ExecPolicy::kSequential) base_tpk = tpk;
        if (policy == ExecPolicy::kAmac) {
          amac_tpk = tpk;
          amac_llc_miss = r.LlcMissRate();
        }
        row.push_back(TablePrinter::Fmt(tpk, 2));
        if (json != nullptr) {
          json->BeginPoint();
          json->Field("section", std::string("scaling"));
          json->Field("machine", plan.machine.name);
          json->Field("threads", threads);
          json->Field("policy", std::string(SeriesName(policy)));
          json->Field("throughput_per_kilocycle", tpk);
          json->Field("cycles_per_lookup", r.CyclesPerLookup());
          json->Field("l1_miss_rate", r.L1MissRate());
          json->Field("l2_miss_rate", r.L2MissRate());
          json->Field("llc_miss_rate", r.LlcMissRate());
          json->Field("dram_row_hit_rate", r.DramRowHitRate());
          json->Field("gq_full_waits", r.gq_full_waits);
          json->Field("prefetch_accuracy", r.PrefetchAccuracy());
          json->Field("prefetch_coverage", r.PrefetchCoverage());
        }
      }
      row.push_back(TablePrinter::Fmt(amac_llc_miss * 100.0, 1));
      table.AddRow(row);
      if (amac_tpk < base_tpk) amac_ge_baseline = false;
      const double ratio = base_tpk > 0 ? amac_tpk / base_tpk : 0;
      if (threads == plan.threads.front()) first_ratio = ratio;
      if (threads == plan.threads.back()) last_ratio = ratio;
    }
    table.Print();
    Gate(amac_ge_baseline,
         "scaling[" + plan.machine.name + "]: AMAC >= Baseline everywhere");
    if (plan.gate_crossover) {
      std::printf("  AMAC/Baseline ratio: %.2fx at %u thread(s) -> %.2fx at "
                  "%u threads\n",
                  first_ratio, plan.threads.front(), last_ratio,
                  plan.threads.back());
      Gate(first_ratio >= 1.1 * last_ratio,
           "scaling[" + plan.machine.name +
               "]: GQ saturation compresses AMAC gap >=1.1x");
    }
  }
}

// ---------------------------------------------------------------------------
// Section 2: prefetcher ablation (stride vs pointer-chase coverage).
// ---------------------------------------------------------------------------

struct PrefetchPoint {
  double accuracy = 0, coverage = 0, timeliness = 0;
};

PrefetchPoint PrefetchRun(const memsim::MachineConfig& machine,
                          const memsim::AccessTrace& trace,
                          memsim::PrefetcherKind kind, JsonWriter* json,
                          const std::string& trace_name) {
  memsim::SimConfig config;
  config.policy = ExecPolicy::kSequential;
  config.inflight = 1;
  config.stages = 1;
  config.num_threads = 1;
  config.lookups_per_thread = trace.lookups();
  config.trace = &trace;
  config.prefetcher = kind;
  const memsim::SimResult r = memsim::Simulate(machine, config);
  if (json != nullptr) {
    json->BeginPoint();
    json->Field("section", std::string("prefetch"));
    json->Field("trace", trace_name);
    json->Field("prefetcher",
                std::string(memsim::PrefetcherKindName(kind)));
    json->Field("prefetch_accuracy", r.PrefetchAccuracy());
    json->Field("prefetch_coverage", r.PrefetchCoverage());
    json->Field("prefetch_timeliness", r.PrefetchTimeliness());
    json->Field("prefetches_issued", r.cache.prefetches_issued);
    json->Field("llc_misses", r.cache.llc_misses);
    json->Field("cycles_per_lookup", r.CyclesPerLookup());
  }
  return {r.PrefetchAccuracy(), r.PrefetchCoverage(),
          r.PrefetchTimeliness()};
}

void PrefetchSection(const memsim::AccessTrace& hash_trace, bool quick,
                     JsonWriter* json) {
  const memsim::MachineConfig machine = memsim::MachineConfig::XeonX5670();
  const uint64_t lookups = quick ? 4096 : 8192;
  const memsim::AccessTrace stride =
      memsim::StrideAccessTrace(lookups, 4, 64);
  const memsim::AccessTrace chase = memsim::PointerChaseAccessTrace(
      lookups, 4, /*region_bytes=*/64ull << 20, /*seed=*/11);

  struct Named {
    const char* name;
    const memsim::AccessTrace* trace;
  };
  const Named traces[] = {
      {"stride", &stride}, {"pointer-chase", &chase}, {"hash-probe",
                                                       &hash_trace}};
  const memsim::PrefetcherKind kinds[] = {
      memsim::PrefetcherKind::kNone, memsim::PrefetcherKind::kNextLine,
      memsim::PrefetcherKind::kStride, memsim::PrefetcherKind::kSpp};

  TablePrinter table(
      "ext_memsim prefetch [" + machine.name +
          "]: coverage / accuracy by trace (sequential, 1 thread)",
      {"trace", "none", "next-line", "stride", "spp",
       "spp accuracy"});
  double spp_stride_cov = 0, spp_chase_cov = 0;
  for (const Named& t : traces) {
    std::vector<std::string> row{t.name};
    double spp_acc = 0;
    for (memsim::PrefetcherKind kind : kinds) {
      const PrefetchPoint p =
          PrefetchRun(machine, *t.trace, kind, json, t.name);
      row.push_back(TablePrinter::Fmt(p.coverage, 3));
      if (kind == memsim::PrefetcherKind::kSpp) {
        spp_acc = p.accuracy;
        if (t.trace == &stride) spp_stride_cov = p.coverage;
        if (t.trace == &chase) spp_chase_cov = p.coverage;
      }
    }
    row.push_back(TablePrinter::Fmt(spp_acc, 3));
    table.AddRow(row);
  }
  table.Print();
  Gate(spp_stride_cov >= 0.9, "prefetch: SPP coverage >= 0.9 on stride");
  Gate(spp_chase_cov <= 0.5 * spp_stride_cov,
       "prefetch: SPP pointer-chase coverage <= 0.5x stride");
}

// ---------------------------------------------------------------------------
// Section 3: simulated grid ranking vs real measured calibration.
// ---------------------------------------------------------------------------

struct MeasuredPoint {
  GridPoint point;
  double cycles_per_input = 0;
};

/// Measure every grid point on the real machine: min cycles over `reps`,
/// one single-threaded executor per point (matching the governor's
/// per-thread-team calibration granularity).
template <typename RunFn>
std::vector<MeasuredPoint> MeasureGrid(const std::vector<GridPoint>& grid,
                                       uint32_t stages, uint32_t reps,
                                       RunFn&& run_once) {
  std::vector<MeasuredPoint> measured;
  measured.reserve(grid.size());
  for (const GridPoint& point : grid) {
    Executor exec(ExecConfig{point.policy, point.Params(stages), 1, 0});
    uint64_t best_cycles = 0;
    uint64_t inputs = 0;
    for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
      const RunStats run = run_once(exec);
      if (rep == 0 || run.cycles < best_cycles) best_cycles = run.cycles;
      inputs = run.inputs;
    }
    measured.push_back(
        {point, inputs ? static_cast<double>(best_cycles) /
                             static_cast<double>(inputs)
                       : 0});
  }
  return measured;
}

/// Compare the sim ranking against the measured table for one family.
void SeedFamily(const std::string& family,
                const memsim::AccessTrace& trace,
                const std::vector<MeasuredPoint>& measured,
                JsonWriter* json) {
  memsim::RankOptions options;
  options.num_threads = 1;
  options.stages = 2;
  options.prefetcher = memsim::PrefetcherKind::kStride;
  const memsim::RankResult seed = memsim::RankGrid(
      memsim::MachineConfig::XeonX5670(), trace, options);

  auto measured_cpi = [&](const GridPoint& p) {
    for (const MeasuredPoint& m : measured)
      if (m.point == p) return m.cycles_per_input;
    return 0.0;
  };
  const MeasuredPoint* best = &measured.front();
  for (const MeasuredPoint& m : measured)
    if (m.cycles_per_input < best->cycles_per_input) best = &m;

  TablePrinter table("ext_memsim seed [" + family +
                         "]: sim ranking vs measured cycles/input",
                     {"rank", "policy", "M", "sim c/l", "measured c/l"});
  uint32_t rank = 0;
  for (const memsim::RankEntry& e : seed.table) {
    table.AddRow({std::to_string(++rank), SeriesName(e.point.policy),
                  std::to_string(e.point.inflight),
                  TablePrinter::Fmt(e.cycles_per_input, 1),
                  TablePrinter::Fmt(measured_cpi(e.point), 1)});
    if (json != nullptr) {
      json->BeginPoint();
      json->Field("section", std::string("seed"));
      json->Field("family", family);
      json->Field("sim_rank", rank);
      json->Field("policy", std::string(SeriesName(e.point.policy)));
      json->Field("inflight", e.point.inflight);
      json->Field("sim_cycles_per_input", e.cycles_per_input);
      json->Field("measured_cycles_per_input", measured_cpi(e.point));
    }
  }
  table.Print();

  const double winner_measured = measured_cpi(seed.winner);
  const bool same_argmax = seed.winner == best->point;
  std::printf(
      "  sim winner %s/M=%u measures %.1f c/l; measured best %s/M=%u at "
      "%.1f c/l\n",
      SeriesName(seed.winner.policy), seed.winner.inflight, winner_measured,
      SeriesName(best->point.policy), best->point.inflight,
      best->cycles_per_input);
  Gate(same_argmax ||
           winner_measured <= 1.10 * best->cycles_per_input,
       "seed[" + family + "]: sim winner within 10% of measured best");
}

void SeedSection(const BenchArgs& args, bool quick, JsonWriter* json) {
  const uint32_t reps = std::max(2u, args.reps);
  const std::vector<GridPoint> grid = memsim::DefaultRankGrid();

  // Family 1: hash-probe.  The table (2^20 keys) dwarfs any real LLC, and
  // the probe keys are random, so the measured runs are DRAM-bound — the
  // regime the simulator models.
  {
    const uint64_t probe_n = quick ? uint64_t{1} << 14 : uint64_t{1} << 16;
    const PreparedJoin prepared =
        PrepareJoin(uint64_t{1} << 20, probe_n, 0, 0, 42);
    const memsim::AccessTrace trace = memsim::CollectAccessTrace(
        *prepared.table, prepared.s, /*early_exit=*/true);
    const auto measured =
        MeasureGrid(grid, /*stages=*/2, reps, [&](Executor& exec) {
          return ProbePhase(exec, *prepared.table, prepared.s,
                            /*early_exit=*/true);
        });
    SeedFamily("hash-probe", trace, measured, json);
  }

  // Family 2: skip list search — deeper dependent chains, bigger nodes.
  {
    const uint64_t keys = uint64_t{1} << 18;
    const uint64_t probe_n = quick ? uint64_t{1} << 13 : uint64_t{1} << 15;
    const PreparedJoin prepared = PrepareJoin(keys, probe_n, 0, 0, 7);
    const std::unique_ptr<SkipList> list = BuildSkipList(prepared.r, 19);
    const memsim::AccessTrace trace =
        memsim::CollectSkipAccessTrace(*list, prepared.s);
    const auto measured =
        MeasureGrid(grid, /*stages=*/2, reps, [&](Executor& exec) {
          return RunSkipListSearch(exec, *list, prepared.s);
        });
    SeedFamily("skiplist", trace, measured, json);
  }
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineBool("quick", false,
                        "smaller traces/grids for the CI smoke gate");
  args.flags.DefineString("json", "",
                          "write machine-readable results to this path");
  args.flags.DefineInt("sim_lookups", 0,
                       "simulated lookups per thread in the scaling "
                       "section (0 picks by mode)");
  args.Define(/*default_scale_log2=*/18);
  args.Parse(argc, argv);
  const bool quick = args.flags.GetBool("quick");
  const uint64_t sim_lookups =
      args.flags.GetInt("sim_lookups") > 0
          ? static_cast<uint64_t>(args.flags.GetInt("sim_lookups"))
          : (quick ? 1500 : 5000);

  PrintHeader(
      "ext_memsim (cache-hierarchy model acceptance: Fig 7/8 shape, "
      "prefetcher ablation, sim-vs-measured grid ranking)",
      "gates exit nonzero on failure; see src/memsim/DESIGN.md");

  std::unique_ptr<JsonWriter> json;
  const std::string json_path = args.flags.GetString("json");
  if (!json_path.empty()) {
    json = std::make_unique<JsonWriter>(json_path, "ext_memsim");
    json->Field("quick", uint64_t{quick ? 1u : 0u});
    json->Field("scale", args.scale);
    json->BeginSeries();
  }

  // The shared real-workload trace: a uniform hash probe whose footprint
  // exceeds the modeled Xeon LLC (12 MB), so the simulated hierarchy is
  // DRAM-bound like the paper's 2^27-scale runs.
  const PreparedJoin prepared =
      PrepareJoin(args.scale, args.scale, 0, 0, 13);
  const memsim::AccessTrace hash_trace = memsim::CollectAccessTrace(
      *prepared.table, prepared.s, /*early_exit=*/true);

  ScalingSection(hash_trace, quick, sim_lookups, json.get());
  PrefetchSection(hash_trace, quick, json.get());
  SeedSection(args, quick, json.get());

  if (json != nullptr && !json->Close()) {
    g_failures.push_back("json artifact write failed");
  }
  if (g_failures.empty()) {
    std::printf("\next_memsim: all gates PASS\n");
  } else {
    std::printf("\next_memsim: %zu gate(s) FAILED:\n", g_failures.size());
    for (const std::string& f : g_failures)
      std::printf("  FAIL %s\n", f.c_str());
  }
  return static_cast<int>(g_failures.size());
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
