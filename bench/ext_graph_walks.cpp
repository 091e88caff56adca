// Extension (paper §8 future work): random walks over a CSR graph, run
// through the unified runtime (core/scheduler.h) under every ExecPolicy,
// then scaled across threads with the morsel-driven parallel driver.
// Dependent chain per hop: adjacency row bounds -> random edge -> next
// vertex.  Target skew (power-law in-degree) supplies the irregularity
// knob.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/cycle_timer.h"
#include "common/macros.h"
#include "common/table_printer.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"

namespace amac::bench {
namespace {

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineInt("hops", 8, "steps per walker");
  args.flags.DefineInt("walkers_log2", 18, "number of walkers (log2)");
  args.flags.DefineInt("threads", 4, "threads for the parallel-driver table");
  args.Define(/*default_scale_log2=*/23);  // vertices
  args.Parse(argc, argv);
  const uint32_t hops =
      std::max(1, static_cast<int>(args.flags.GetInt("hops")));
  const uint64_t walkers = uint64_t{1}
                           << args.flags.GetInt("walkers_log2");
  const uint32_t threads =
      std::max(1, static_cast<int>(args.flags.GetInt("threads")));

  PrintHeader("Extension: graph random walks (paper §8 future work)",
              "CSR graph 2^" + std::to_string(args.flags.GetInt("scale_log2")) +
                  " vertices, out-degree 8; every ExecPolicy via "
                  "Run(policy, ...), then the morsel-driven driver");

  // Same SPP pipeline shape the pre-runtime bench used: 2*hops stages at
  // distance inflight/(2*hops) + 1.
  const SchedulerParams params{args.inflight, 2 * hops,
                               args.inflight / (2 * hops) + 1};

  TablePrinter table("graph random walks: cycles per hop (1 thread)",
                     {"target skew", "Sequential", "GP", "SPP", "AMAC",
                      "Coroutine", "Vectorized", "VecAMAC"});
  TablePrinter par_table(
      "graph random walks: cycles per hop (" + std::to_string(threads) +
          " threads, morsel-driven Executor)",
      {"target skew", "Sequential", "GP", "SPP", "AMAC", "Coroutine",
       "Vectorized", "VecAMAC"});
  Executor par_exec(
      ExecConfig{ExecPolicy::kAmac, params, threads, 0});
  for (double theta : {0.0, 0.99}) {
    CsrGraph::Options opt;
    opt.num_vertices = args.scale;
    opt.out_degree = 8;
    opt.target_theta = theta;
    const CsrGraph graph(opt);
    const double total_hops =
        static_cast<double>(walkers) * static_cast<double>(hops);
    const char* label = theta == 0.0 ? "uniform" : "Zipf(0.99)";

    std::vector<std::string> row{label};
    std::vector<std::string> par_row{label};
    for (ExecPolicy policy : kAllExecPolicies) {
      uint64_t best = UINT64_MAX;
      for (uint32_t rep = 0; rep < std::max(1u, args.reps); ++rep) {
        WalkSink sink;
        RandomWalkOp op(graph, hops, 7, sink);
        CycleTimer timer;
        amac::Run(policy, params, op, walkers);
        best = std::min(best, timer.Elapsed());
      }
      row.push_back(
          TablePrinter::Fmt(static_cast<double>(best) / total_hops, 1));

      par_exec.set_policy(policy);
      uint64_t par_best = UINT64_MAX;
      for (uint32_t rep = 0; rep < std::max(1u, args.reps); ++rep) {
        // Cache-line padding keeps concurrent sink updates off shared
        // lines; the driver's own cycle counter excludes thread spawn.
        struct AMAC_CACHE_ALIGNED PaddedSink {
          WalkSink sink;
        };
        std::vector<PaddedSink> sinks(threads);
        const RunStats stats =
            par_exec.RunOp(walkers, [&](uint32_t tid) {
              return RandomWalkOp(graph, hops, 7, sinks[tid].sink);
            });
        par_best = std::min(par_best, stats.cycles);
      }
      par_row.push_back(
          TablePrinter::Fmt(static_cast<double>(par_best) / total_hops, 1));
    }
    table.AddRow(row);
    par_table.AddRow(par_row);
  }
  table.Print();
  par_table.Print();
  std::printf(
      "reading: every walker chases two dependent accesses per hop; the "
      "AMAC schedule overlaps walkers exactly as it overlaps DB lookups — "
      "the §8 hypothesis that AMAC generalizes beyond relational operators. "
      "The parallel table stacks morsel-driven thread scaling on top of "
      "per-thread memory-level parallelism.\n");
  return 0;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
