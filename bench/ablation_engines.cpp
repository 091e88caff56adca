// Ablation (paper §6 "AMAC automation"): what does generalizing AMAC cost?
// Compares, on the same workloads:
//   * the hand-written no-prefetch Baseline loop (ProbeBaseline /
//     BstSearchBaseline) and the Listing-1 AMAC probe (join rows),
//   * the generic stage-machine op dispatched through the unified runtime
//     (core/scheduler.h) — Run(policy, params, op, n) — under the
//     sequential, AMAC, GP and coroutine schedules; the coroutine column is
//     the generic adapter (ExecPolicy::kCoroutine) wrapping the same op in
//     a coroutine frame.
// Hand Baseline against generic Seq prices what the generic no-prefetch
// schedule costs over the plain loop (the figures' Baseline columns run
// the generic one); hand AMAC against generic AMAC prices the prefetching
// engine's abstraction.
// Arms run interleaved rep by rep, and every arm's sink is checked against
// the no-prefetch Baseline loop's matches and checksum on every rep; a
// mismatch exits nonzero.  Consuming the sinks also keeps the compiler
// from discarding any arm's work.
// The paper predicts "user-land threads' state maintenance and space
// overhead" for framework approaches; this bench quantifies it.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bst/bst.h"
#include "bst/bst_search.h"
#include "common/cycle_timer.h"
#include "common/table_printer.h"
#include "core/ops.h"
#include "core/scheduler.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"

namespace amac::bench {
namespace {

/// The generic columns, in table order.
constexpr ExecPolicy kGenericPolicies[] = {
    ExecPolicy::kSequential, ExecPolicy::kAmac, ExecPolicy::kGroupPrefetch,
    ExecPolicy::kCoroutine};

/// One timed arm: a label and the work, which emits into the given sink.
struct Arm {
  std::string label;
  std::function<void(CountChecksumSink&)> run;
};

/// Runs the arms interleaved rep by rep and returns each arm's min cycles.
/// Every rep's sink must equal the oracle's; a mismatch is reported and
/// clears *ok.
std::vector<uint64_t> MinCycles(const std::vector<Arm>& arms,
                                const CountChecksumSink& oracle,
                                uint32_t reps, bool* ok) {
  std::vector<uint64_t> best(arms.size(), UINT64_MAX);
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    for (size_t a = 0; a < arms.size(); ++a) {
      CountChecksumSink sink;
      CycleTimer timer;
      arms[a].run(sink);
      best[a] = std::min(best[a], timer.Elapsed());
      if (sink.matches() != oracle.matches() ||
          sink.checksum() != oracle.checksum()) {
        std::fprintf(stderr,
                     "%s: %llu matches / checksum %llx, oracle %llu / %llx\n",
                     arms[a].label.c_str(),
                     static_cast<unsigned long long>(sink.matches()),
                     static_cast<unsigned long long>(sink.checksum()),
                     static_cast<unsigned long long>(oracle.matches()),
                     static_cast<unsigned long long>(oracle.checksum()));
        *ok = false;
      }
    }
  }
  return best;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.Define(/*default_scale_log2=*/22);
  args.Parse(argc, argv);
  const uint32_t m = args.inflight;
  bool ok = true;

  PrintHeader("Ablation: hand-written Listing-1 AMAC vs the generic engine",
              "paper §6 framework discussion; join probe and BST search; "
              "generic columns dispatch through Run(policy, ...); every arm "
              "checked against the Baseline oracle");

  TablePrinter table("engine-implementation ablation: cycles per lookup",
                     {"workload", "hand Baseline", "hand AMAC", "generic Seq",
                      "generic AMAC", "generic GP", "generic coro"});

  {  // Hash join probe, uniform and skewed.
    for (double z : {0.0, 1.0}) {
      const PreparedJoin prepared =
          PrepareJoin(args.scale, args.scale, z, z, 51);
      const ChainedHashTable& ht = *prepared.table;
      const Relation& s = prepared.s;
      const double n = static_cast<double>(s.size());
      // First-match semantics throughout (paper Listing 1).
      constexpr bool kEarly = true;
      const SchedulerParams params{m, 1};  // GP stages = 1 for hash chains
      const std::string row = "join probe z=" + TablePrinter::Fmt(z, 1);
      CountChecksumSink oracle;
      ProbeBaseline<kEarly>(ht, s, 0, s.size(), oracle);
      std::vector<Arm> arms{
          {row + " hand Baseline",
           [&](CountChecksumSink& sink) {
             ProbeBaseline<kEarly>(ht, s, 0, s.size(), sink);
           }},
          {row + " hand AMAC",
           [&](CountChecksumSink& sink) {
             ProbeAmac<kEarly>(ht, s, 0, s.size(), m, sink);
           }}};
      for (ExecPolicy policy : kGenericPolicies) {
        arms.push_back({row + " " + ExecPolicyName(policy),
                        [&, policy](CountChecksumSink& sink) {
                          ProbeOp<kEarly, CountChecksumSink> op(ht, s, sink);
                          amac::Run(policy, params, op, s.size());
                        }});
      }
      const std::vector<uint64_t> cycles =
          MinCycles(arms, oracle, args.reps, &ok);
      std::vector<std::string> cells{row};
      for (uint64_t c : cycles) cells.push_back(TablePrinter::Fmt(c / n, 1));
      table.AddRow(cells);
    }
  }
  {  // BST search.
    const uint64_t n = args.scale;  // must exceed the LLC
    const Relation rel = MakeDenseUniqueRelation(n, 52);
    const BinarySearchTree tree = BuildBst(rel);
    const Relation probe = MakeForeignKeyRelation(n, n, 53);
    const double dn = static_cast<double>(n);
    CountChecksumSink oracle;
    BstSearchBaseline(tree, probe, 0, n, oracle);
    std::vector<Arm> arms{{"BST search hand Baseline",
                           [&](CountChecksumSink& sink) {
                             BstSearchBaseline(tree, probe, 0, n, sink);
                           }}};
    for (ExecPolicy policy : kGenericPolicies) {
      // GP provisions 24 levels for the tall random tree.
      const uint32_t stages = policy == ExecPolicy::kGroupPrefetch ? 24 : 1;
      arms.push_back({std::string("BST search ") + ExecPolicyName(policy),
                      [&, policy, stages](CountChecksumSink& sink) {
                        BstSearchOp<CountChecksumSink> op(tree, probe, sink);
                        amac::Run(policy, SchedulerParams{m, stages}, op, n);
                      }});
    }
    const std::vector<uint64_t> cycles =
        MinCycles(arms, oracle, args.reps, &ok);
    std::vector<std::string> cells{"BST search"};
    for (size_t a = 0; a < cycles.size(); ++a) {
      cells.push_back(TablePrinter::Fmt(cycles[a] / dn, 1));
      if (a == 0) cells.push_back("-");  // no hand AMAC descent
    }
    table.AddRow(cells);
  }
  table.Print();
  std::printf(
      "reading: generic AMAC should sit within ~10%% of the hand Listing-1 "
      "probe; generic Seq minus hand Baseline is the engine's per-step cost "
      "with prefetches off; the coroutine adapter carries frame-allocation "
      "overhead per lookup (the cost §6 anticipates) and prices the "
      "fully-automated path.\n");
  if (!ok) {
    std::fprintf(stderr, "FAIL: an arm diverged from the Baseline oracle\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
