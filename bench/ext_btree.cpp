// Extension (paper §2.1.2 context): the engines on a *balanced, wide-node*
// index — a bulk-loaded B+-tree with 4-cache-line nodes.  Every lookup
// performs exactly `height` dependent node visits, so this is the fully
// regular regime where GP/SPP were designed to shine; contrasted with
// fig10_bst it isolates how much of AMAC's edge comes from irregularity
// and how much from schedule efficiency.  Every column runs the one
// BTreeSearchOp; Baseline is its kSequential schedule, which issues no
// prefetches.  Every policy's matches and checksum are checked against
// the Baseline column's (nonzero exit on divergence).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common/cycle_timer.h"
#include "common/table_printer.h"
#include "core/scheduler.h"
#include "join/sink.h"

namespace amac::bench {
namespace {

/// Best-of-reps cycles of one policy, plus the last rep's sink.
struct Measured {
  uint64_t cycles = UINT64_MAX;
  CountChecksumSink sink;
};

Measured Measure(const BTree& tree, const Relation& probe, ExecPolicy policy,
                 uint32_t m, uint32_t reps) {
  const SchedulerParams params{m, tree.height()};
  Measured best;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    best.sink = CountChecksumSink{};
    BTreeSearchOp<CountChecksumSink> op(tree, probe, best.sink);
    CycleTimer timer;
    amac::Run(policy, params, op, probe.size());
    best.cycles = std::min(best.cycles, timer.Elapsed());
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.Define(/*default_scale_log2=*/23);
  args.Parse(argc, argv);

  PrintHeader("Extension: B+-tree index search (regular traversals)",
              "bulk-loaded, 256B nodes, exactly height() accesses per "
              "lookup; compare against fig10_bst");

  bool ok = true;
  TablePrinter table("B+-tree search: cycles per lookup",
                     {"keys (log2)", "height", "Baseline", "GP", "SPP",
                      "AMAC"});
  for (int log2 = 17; log2 <= args.flags.GetInt("scale_log2"); log2 += 3) {
    const uint64_t n = uint64_t{1} << log2;
    const Relation rel = MakeDenseUniqueRelation(n, 211);
    const BTree tree(rel);
    const Relation probe = MakeForeignKeyRelation(n, n, 212);
    std::vector<std::string> row{std::to_string(log2),
                                 std::to_string(tree.height())};
    SequentialOracle oracle;
    for (ExecPolicy policy : kPaperPolicies) {
      const Measured m =
          Measure(tree, probe, policy, args.inflight, args.reps);
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
      "reading: with fully regular traversals GP/SPP recover much of "
      "AMAC's fig10 advantage (no wasted stages, no bailouts) — evidence "
      "that AMAC's edge on the BST is its irregularity handling, as the "
      "paper argues.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
