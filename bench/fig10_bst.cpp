// Figure 10: BST search cycles per output tuple vs tree size (the paper
// sweeps 2^15..2^29; default here sweeps up to the --scale_log2 cap).
// Every column is the one BstSearchOp dispatched through the unified
// runtime; Baseline is its kSequential schedule, which issues no
// prefetches.  Every policy's matches and checksum are checked against
// the Baseline column's (nonzero exit on divergence).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "bst/bst.h"
#include "common/table_printer.h"
#include "core/ops.h"
#include "core/scheduler.h"
#include "join/sink.h"

namespace amac::bench {
namespace {

/// Best-of-reps cycles of one policy, plus the last rep's sink.
struct Measured {
  uint64_t cycles = UINT64_MAX;
  CountChecksumSink sink;
};

Measured MeasureBst(Executor& exec, const BinarySearchTree& tree,
                    const Relation& probe, ExecPolicy policy,
                    uint32_t reps) {
  Measured best;
  exec.set_policy(policy);
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    best.sink = CountChecksumSink{};
    const RunStats run = exec.RunOp(probe.size(), [&](uint32_t) {
      return BstSearchOp<CountChecksumSink>(tree, probe, best.sink);
    });
    best.cycles = std::min(best.cycles, run.cycles);
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineInt("gp_stages", 24,
                       "provisioned descent stages for GP/SPP (tune to ~avg "
                       "tree depth)");
  args.Define(/*default_scale_log2=*/23);
  args.Parse(argc, argv);

  PrintHeader("Figure 10 (BST search, Xeon x5670)",
              "random (unbalanced) tree; probe count = tree size; every "
              "probe matches");

  std::vector<int> sizes;
  for (int log2 = 15; log2 <= args.flags.GetInt("scale_log2"); log2 += 2) {
    sizes.push_back(log2);
  }
  if (sizes.empty() || sizes.back() != args.flags.GetInt("scale_log2")) {
    sizes.push_back(static_cast<int>(args.flags.GetInt("scale_log2")));
  }
  const uint32_t stages =
      static_cast<uint32_t>(args.flags.GetInt("gp_stages"));
  Executor exec(ExecConfig{ExecPolicy::kAmac,
                           SchedulerParams{args.inflight, stages, 0}, 1,
                           0});

  // The vector columns run the 8-wide gathered descent (bst/bst_search.h);
  // on scalar-only hosts they fall back to the equivalent scalar schedule.
  constexpr ExecPolicy kFig10Policies[] = {
      ExecPolicy::kSequential,        ExecPolicy::kGroupPrefetch,
      ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac,
      ExecPolicy::kVectorized,        ExecPolicy::kVectorizedAmac};
  bool ok = true;
  TablePrinter table("Fig 10: BST search cycles per output tuple",
                     {"tree size (log2)", "avg depth", "Baseline", "GP",
                      "SPP", "AMAC", "Vectorized", "VecAMAC"});
  for (int log2 : sizes) {
    const uint64_t n = uint64_t{1} << log2;
    const Relation rel = MakeDenseUniqueRelation(n, 23);
    const BinarySearchTree tree = BuildBst(rel);
    const Relation probe = MakeForeignKeyRelation(n, n, 24);
    const BstStats stats = tree.ComputeStats();
    std::vector<std::string> row{std::to_string(log2),
                                 TablePrinter::Fmt(stats.avg_depth, 1)};
    SequentialOracle oracle;
    for (ExecPolicy policy : kFig10Policies) {
      const Measured m = MeasureBst(exec, tree, probe, policy, args.reps);
      ok = oracle.Check("2^" + std::to_string(log2), policy,
                        m.sink.matches(), m.sink.checksum()) &&
           ok;
      row.push_back(TablePrinter::Fmt(
          static_cast<double>(m.cycles) / static_cast<double>(n), 1));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "expected shape: prefetcher advantage grows with tree height; AMAC > "
      "GP > SPP (paper: 2.8x / 2.1x / 1.8x geomean, AMAC max 4.45x).\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
