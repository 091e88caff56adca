// Figure 5: hash join cycles per output tuple, build + probe breakdown,
// under five key-distribution configurations [ZR, ZS], for (a) a small
// build relation (|R| = |S|/1024, table fits in LLC) and (b) equally sized
// relations.
//
// Extended beyond the paper with the vectorized policies (Vectorized =
// pure 8-wide batch gather, VecAMAC = interleaved multi-vectorization):
// every policy's join result is checked against the sequential oracle
// (nonzero exit on divergence), and on AVX2-capable hosts the bench
// additionally gates VecAMAC beating the best scalar static policy by
// >= 1.2x on at least one probe-heavy chained family (build-side skew)
// while holding parity on the uniform families.  --json emits the
// grid machine-readably, including the hardware LLC-miss / stalled-cycle
// counters when the kernel admits them (perf_valid says which).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/table_printer.h"
#include "join/hash_join.h"

namespace amac::bench {
namespace {

constexpr ExecPolicy kFig5Policies[] = {
    ExecPolicy::kSequential,       ExecPolicy::kGroupPrefetch,
    ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac,
    ExecPolicy::kVectorized,       ExecPolicy::kVectorizedAmac};

/// Scalar static policies VecAMAC must beat on the speedup gate.
constexpr ExecPolicy kScalarPolicies[] = {
    ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
    ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac};

bool IsScalarPolicy(ExecPolicy p) {
  for (ExecPolicy s : kScalarPolicies) {
    if (p == s) return true;
  }
  return false;
}

/// One [config, ZR, ZS] family's probe-side comparison for the
/// vectorization gate.
struct GateFamily {
  std::string label;
  double zr = 0;
  double best_scalar = 0;  ///< probe cycles/output, best scalar policy
  double vec_amac = 0;     ///< probe cycles/output, VecAMAC
  double Speedup() const {
    return vec_amac > 0 ? best_scalar / vec_amac : 0;
  }
};

bool RunOne(const char* title, uint64_t r_size, uint64_t s_size,
            const BenchArgs& args, JsonWriter* json,
            std::vector<GateFamily>* gate) {
  const double kSkews[][2] = {
      {0, 0}, {0.5, 0}, {1, 0}, {0.5, 0.5}, {1, 1}};
  const std::vector<std::string> header{
      "skew", "Baseline", "GP", "SPP", "AMAC", "Vectorized", "VecAMAC"};

  TablePrinter build_table(std::string(title) + " - build cycles/output",
                           header);
  TablePrinter probe_table(std::string(title) + " - probe cycles/output",
                           header);
  TablePrinter total_table(std::string(title) + " - total cycles/output",
                           header);

  bool ok = true;
  for (const auto& skew : kSkews) {
    const double zr = skew[0], zs = skew[1];
    const PreparedJoin prepared = PrepareJoin(
        r_size, s_size, zr, zs, static_cast<uint64_t>(zr * 10 + zs * 100 + 3));
    std::vector<std::string> build_row{SkewLabel(zr, zs)};
    std::vector<std::string> probe_row{SkewLabel(zr, zs)};
    std::vector<std::string> total_row{SkewLabel(zr, zs)};
    SequentialOracle oracle;
    double best_scalar_probe = 0;
    for (ExecPolicy policy : kFig5Policies) {
      // NPO layout: ~1 chain node in the uniform case (stages = 1).
      Executor exec(ExecConfig{
          policy, SchedulerParams{args.inflight, 1, 0}, 1, 0});
      // First-match semantics throughout, as in the paper's Listing 1
      // (out[idx] holds one result per probe tuple).
      const JoinResult result =
          MeasureJoin(exec, prepared, JoinOptions{}, args.reps);
      ok = oracle.Check(std::string(title) + " " + SkewLabel(zr, zs), policy,
                        result.matches(), result.checksum()) &&
           ok;
      const double out = static_cast<double>(
          result.matches() ? result.matches() : result.probe.inputs);
      const double probe_cpo =
          static_cast<double>(result.probe.cycles) / out;
      build_row.push_back(TablePrinter::Fmt(
          static_cast<double>(result.build.cycles) / out, 1));
      probe_row.push_back(TablePrinter::Fmt(probe_cpo, 1));
      total_row.push_back(TablePrinter::Fmt(
          static_cast<double>(result.build.cycles + result.probe.cycles) /
              out,
          1));
      if (gate != nullptr) {
        if (IsScalarPolicy(policy) &&
            (best_scalar_probe == 0 || probe_cpo < best_scalar_probe)) {
          best_scalar_probe = probe_cpo;
        }
        if (policy == ExecPolicy::kVectorizedAmac) {
          gate->push_back(GateFamily{std::string(title) + " " +
                                         SkewLabel(zr, zs),
                                     zr, best_scalar_probe, probe_cpo});
        }
      }
      if (json != nullptr) {
        json->BeginPoint();
        json->Field("config", std::string(title));
        json->Field("zr", zr);
        json->Field("zs", zs);
        json->Field("policy", std::string(SeriesName(policy)));
        json->Field("build_cycles_per_output",
                    static_cast<double>(result.build.cycles) / out);
        json->Field("probe_cycles_per_output", probe_cpo);
        json->Field("probe_vec_fallbacks", result.probe.engine.vec_fallbacks);
        json->Field("perf_valid", result.probe.perf.valid ? 1 : 0);
        json->Field("probe_llc_misses", result.probe.perf.llc_misses);
        json->Field("probe_stalled_cycles",
                    result.probe.perf.stalled_cycles);
        json->Field("probe_instructions", result.probe.perf.instructions);
      }
    }
    build_table.AddRow(build_row);
    probe_table.AddRow(probe_row);
    total_table.AddRow(total_row);
  }
  build_table.Print();
  probe_table.Print();
  total_table.Print();
  return ok;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineInt("small_ratio_log2", 10,
                       "small build is |S| >> this many bits (paper: 1024x)");
  args.flags.DefineBool("quick", false, "CI smoke mode: scale 2^16, 3 reps");
  args.flags.DefineString("json", "",
                          "write the skew x policy grid (with hardware "
                          "counters when available) as JSON to this path");
  args.Define(/*default_scale_log2=*/23);
  args.Parse(argc, argv);
  if (args.flags.GetBool("quick")) {
    args.scale = uint64_t{1} << 16;
    args.reps = 3;
  }

  PrintHeader("Figure 5 (hash join cycles breakdown, Xeon x5670)",
              "scale |S|=2^" + std::to_string(63 - __builtin_clzll(args.scale)) +
                  " (paper: 2^27 = 2GB); extended with the vectorized "
                  "policies (SIMD level: " +
                  SimdLevelName(CurrentSimdLevel()) + ")");

  const std::string json_path = args.flags.GetString("json");
  std::unique_ptr<JsonWriter> json;
  if (!json_path.empty()) {
    json = std::make_unique<JsonWriter>(json_path, "fig05_hashjoin");
    json->Field("scale", args.scale);
    json->Field("simd_level", std::string(SimdLevelName(CurrentSimdLevel())));
    json->BeginSeries();
  }

  const uint64_t small_r =
      args.scale >> args.flags.GetInt("small_ratio_log2");
  std::vector<GateFamily> gate;
  bool ok = RunOne("5a", small_r, args.scale, args, json.get(), &gate);
  ok = RunOne("5b", args.scale, args.scale, args, json.get(), &gate) && ok;
  if (json) ok = json->Close() && ok;

  // Vectorization gate, probe side.  Where the 8-wide gather walk wins on
  // this class of hardware is the chained families (build-side skew ZR > 0:
  // bucket chains longer than one node, resident in cache) — there VecAMAC
  // amortizes one gather sequence over 8 lane-parallel chain walks and must
  // beat the best scalar static policy by >= 1.2x on at least one family.
  // On the uniform unique-key families (~1 node per bucket) a gather costs
  // ~2.4 uops per loaded element (vs 1 for a scalar load), which cancels
  // the SIMD compare/hash savings, and the DRAM-bound large join is
  // MSHR-limited for every policy — exactly the paper's argument for
  // interleaving over vectorization — so there VecAMAC is required to hold
  // parity (>= 0.7x) with the best scalar policy, not beat it.
  if (!gate.empty()) {
    const GateFamily* peak = nullptr;
    const GateFamily* worst_uniform = nullptr;
    for (const GateFamily& f : gate) {
      std::printf("vectorization gate [%s probe]: best scalar %.1f vs "
                  "VecAMAC %.1f cycles/output -> %.2fx\n",
                  f.label.c_str(), f.best_scalar, f.vec_amac, f.Speedup());
      if (f.zr > 0 && (peak == nullptr || f.Speedup() > peak->Speedup())) {
        peak = &f;
      }
      if (f.zr == 0 && (worst_uniform == nullptr ||
                        f.Speedup() < worst_uniform->Speedup())) {
        worst_uniform = &f;
      }
    }
    // Only enforced where the SIMD kernels actually run: on scalar-only
    // hosts (or forced-scalar runs) the vector policies are schedule-
    // equivalent fallbacks and the gate is informational.
    if (CurrentSimdLevel() >= SimdLevel::kAvx2) {
      if (peak != nullptr && peak->Speedup() < 1.2) {
        std::printf("ERROR: best VecAMAC speedup on the chained families "
                    "is %.2fx (%s), below the 1.2x gate\n",
                    peak->Speedup(), peak->label.c_str());
        ok = false;
      }
      if (worst_uniform != nullptr && worst_uniform->Speedup() < 0.7) {
        std::printf("ERROR: VecAMAC parity on the uniform families is "
                    "%.2fx (%s), below the 0.7x floor\n",
                    worst_uniform->Speedup(), worst_uniform->label.c_str());
        ok = false;
      }
    }
  }
  std::printf(
      "expected shape: 5a - Baseline beats GP/SPP (LLC-resident table); the "
      "paper has AMAC best, but at 2^22 on a 4-core Xeon VM AMAC trails "
      "Baseline by up to 1.48x on most skewed rows; 5b - AMAC ~2x over "
      "Baseline at [0,0] and ~3.4x at [1,0]; GP/SPP gain at most ~1.4x at "
      "[0,0] and stay within 10%% of Baseline at [1,0]; VecAMAC matches "
      "the best scalar policy on uniform keys (gather uop cost offsets the "
      "SIMD compares) and pulls ahead on build-skewed chained families, "
      "where one gather sequence advances 8 lane-parallel chain walks.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
