// Quickstart: one Executor, a hash join, and the same join fused straight
// into a group-by as a single Pipeline.  Exits 1 if a join misses a probe
// row: every S key is drawn from R's dense unique keys, so each one matches.
//
//   build> cmake -B build -G Ninja && cmake --build build
//   run>   ./build/example_quickstart
#include <cstdio>

#include "core/pipeline.h"
#include "groupby/agg_table.h"
#include "groupby/groupby_ops.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "relation/relation.h"

namespace {

bool AllMatched(const char* label, const amac::JoinResult& join,
                const amac::Relation& s) {
  if (join.matches() == s.size()) return true;
  std::printf("ERROR: %s join found %llu of %llu matches\n", label,
              static_cast<unsigned long long>(join.matches()),
              static_cast<unsigned long long>(s.size()));
  return false;
}

}  // namespace

int main() {
  using namespace amac;

  // 1M-tuple build and probe relations with a foreign-key relationship.
  const uint64_t n = 1 << 20;
  const Relation r = MakeDenseUniqueRelation(n, /*seed=*/1);
  const Relation s = MakeForeignKeyRelation(n, n, /*seed=*/2);

  // One Executor owns the execution policy, the tuning knobs, and a
  // persistent thread team reused by every Run().  10 in-flight lookups
  // covers one L1-D MSHR file's worth of outstanding misses on most x86
  // cores.
  Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{10, 1, 0},
                           /*num_threads=*/4, /*morsel_size=*/0});

  // A classic join through the executor.
  const JoinResult result = RunHashJoin(exec, r, s);
  std::printf("joined %llu x %llu tuples -> %llu matches\n",
              static_cast<unsigned long long>(result.build.inputs),
              static_cast<unsigned long long>(result.probe.inputs),
              static_cast<unsigned long long>(result.matches()));
  std::printf("build: %.1f cycles/tuple, probe: %.1f cycles/tuple\n",
              result.BuildCyclesPerTuple(), result.ProbeCyclesPerTuple());
  if (!AllMatched("AMAC", result, s)) return 1;

  // The same probe fused into a group-by: one pipeline, no materialized
  // intermediate — a probe hit flows directly into the aggregation insert.
  ChainedHashTable table(n, ChainedHashTable::Options{});
  BuildPhase(exec, r, &table);
  AggregateTable agg(n + 1, AggregateTable::Options{});
  const RunStats fused =
      exec.Run(Scan(s).Then(Probe<true>(table)).Then(Aggregate(agg)));
  std::printf("fused join->group-by: %llu groups at %.1f Mtuples/s\n",
              static_cast<unsigned long long>(agg.CountGroups()),
              fused.Throughput() / 1e6);

  // Compare with the no-prefetch baseline (same executor, same pool).
  exec.set_policy(ExecPolicy::kSequential);
  const JoinResult base = RunHashJoin(exec, r, s);
  std::printf("baseline probe: %.1f cycles/tuple (AMAC speedup: %.2fx)\n",
              base.ProbeCyclesPerTuple(),
              base.ProbeCyclesPerTuple() / result.ProbeCyclesPerTuple());
  if (!AllMatched("baseline", base, s)) return 1;
  return 0;
}
