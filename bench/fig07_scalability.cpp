// Figure 7: hash join probe throughput vs hardware threads on the Xeon
// x5670, for [0,0], [.5,.5] and [1,1] key skews.
//
// Two sections:
//  * MEASURED — the real parallel probe on this machine's hardware threads,
//    morsel-driven on an Executor's persistent team (per-slot sinks, atomic
//    morsel cursor).  Thread counts are capped at hardware concurrency.
//  * MODELED — the paper's 6-core Xeon reproduced on the memsim model
//    (per-core L1-D MSHRs + shared 32-entry LLC Global Queue), replaying
//    walk-length traces collected from the *real* hash table built at the
//    configured scale, so workload irregularity matches the measured runs.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/pipeline.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "memsim/memsim.h"
#include "memsim/workload.h"

namespace amac::bench {
namespace {

std::vector<uint32_t> ThreadCounts(uint32_t hw) {
  std::vector<uint32_t> counts;
  for (uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
    if (t <= hw) counts.push_back(t);
  }
  if (counts.back() != hw) counts.push_back(hw);
  return counts;
}

void MeasuredSection(const BenchArgs& args) {
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<uint32_t> thread_counts = ThreadCounts(hw);

  const double kSkews[][2] = {{0, 0}, {0.5, 0.5}, {1, 1}};
  for (const auto& skew : kSkews) {
    const double zr = skew[0], zs = skew[1];
    const PreparedJoin prepared = PrepareJoin(
        args.scale, args.scale, zr, zs,
        static_cast<uint64_t>(53 + zr * 10 + zs * 100));
    TablePrinter table(
        "Fig 7 " + SkewLabel(zr, zs) +
            ": MEASURED probe throughput (Mtuples/s, morsel driver, " +
            std::to_string(hw) + " hw threads)",
        {"threads", "Baseline", "GP", "SPP", "AMAC"});
    for (uint32_t threads : thread_counts) {
      // One executor (one persistent pool) serves every policy and rep at
      // this thread count.
      Executor exec(ExecConfig{
          ExecPolicy::kAmac,
          SchedulerParams{args.inflight, zr == 0.0 ? 1u : 2u, 0}, threads,
          0});
      std::vector<std::string> row{std::to_string(threads)};
      for (ExecPolicy policy : kPaperPolicies) {
        exec.set_policy(policy);
        const RunStats run =
            MeasureProbe(exec, prepared, /*early_exit=*/true, args.reps);
        row.push_back(TablePrinter::Fmt(run.Throughput() / 1e6, 1));
      }
      table.AddRow(row);
    }
    table.Print();
  }
}

/// The team cost of one probe call on the Executor's persistent pool:
/// dispatch wall time minus the measured region.
void TeamCostSection(const BenchArgs& args) {
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const PreparedJoin prepared =
      PrepareJoin(args.scale, args.scale, 0, 0, 53);
  const SchedulerParams params{args.inflight, 1, 0};
  TablePrinter table(
      "Fig 7 team cost per probe call, AMAC (ms; min over reps)",
      {"threads", "persistent pool", "measured region"});
  // Fixed team sizes (oversubscription is fine: the measured quantity is
  // the dispatch cost itself), plus the machine's full width.
  std::vector<uint32_t> team_sizes{2, 4};
  if (hw > 4) team_sizes.push_back(hw);
  for (uint32_t threads : team_sizes) {
    const uint32_t reps = std::max(3u, args.reps);
    double pooled = 1e9, region = 1e9;
    Executor exec(ExecConfig{ExecPolicy::kAmac, params, threads, 0});
    for (uint32_t rep = 0; rep < reps; ++rep) {
      std::vector<CountChecksumSink> sinks(threads);
      const RunStats run =
          exec.RunOp(prepared.s.size(), [&](uint32_t tid) {
            return ProbeOp<true, CountChecksumSink>(*prepared.table,
                                                    prepared.s, sinks[tid]);
          });
      pooled = std::min(pooled, run.dispatch_seconds - run.seconds);
      region = std::min(region, run.seconds);
    }
    table.AddRow({std::to_string(threads),
                  TablePrinter::Fmt(pooled * 1e3, 3),
                  TablePrinter::Fmt(region * 1e3, 3)});
  }
  table.Print();
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineInt("lookups_per_thread", 20000,
                       "simulated lookups per thread");
  args.Define(/*default_scale_log2=*/18);
  args.Parse(argc, argv);

  PrintHeader("Figure 7 (probe throughput vs threads, Xeon x5670)",
              "MEASURED morsel-driven parallel probe on this machine, then "
              "MODELED on memsim with traces from the real chained table");

  MeasuredSection(args);
  TeamCostSection(args);

  const memsim::MachineConfig machine = memsim::MachineConfig::XeonX5670();
  const double kSkews[][2] = {{0, 0}, {0.5, 0.5}, {1, 1}};
  const uint32_t kThreads[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};

  for (const auto& skew : kSkews) {
    const double zr = skew[0], zs = skew[1];
    const PreparedJoin prepared = PrepareJoin(
        args.scale, args.scale, zr, zs,
        static_cast<uint64_t>(11 + zr * 10 + zs * 100));
    const auto lengths = memsim::CollectWalkLengths(
        *prepared.table, prepared.s, /*early_exit=*/true);

    TablePrinter table(
        "Fig 7 " + SkewLabel(zr, zs) +
            ": modeled probe throughput (lookups/kilocycle, all threads)",
        {"threads", "Baseline", "GP", "SPP", "AMAC"});
    for (uint32_t threads : kThreads) {
      std::vector<std::string> row{std::to_string(threads)};
      for (ExecPolicy policy : kPaperPolicies) {
        memsim::SimConfig config;
        config.policy = policy;
        config.inflight = args.inflight;
        config.stages = zr == 0.0 ? 1 : 2;
        config.num_threads = threads;
        config.lookups_per_thread =
            static_cast<uint64_t>(args.flags.GetInt("lookups_per_thread"));
        config.chain_lengths = &lengths;
        const memsim::SimResult r = memsim::Simulate(machine, config);
        row.push_back(TablePrinter::Fmt(r.ThroughputPerKilocycle(), 1));
      }
      table.AddRow(row);
    }
    table.Print();
  }
  std::printf(
      "expected shape: GP/SPP/AMAC level off after ~4 threads (32-entry LLC "
      "Global Queue < 4x10 MSHRs); Baseline scales further and closes the "
      "gap; SMT threads (7-12) add little.\n");
  return 0;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
