#include "skiplist/skiplist_ops.h"

#include <vector>

#include "core/scheduler.h"
#include "epoch/epoch.h"
#include "join/sink.h"
#include "skiplist/skiplist_insert.h"
#include "skiplist/skiplist_search.h"
#include "skiplist/skiplist_write_ops.h"

namespace amac {

RunStats RunSkipListSearch(Executor& exec, const SkipList& list,
                           const Relation& probe) {
  RunStats run;
  const uint32_t threads = exec.num_threads();
  std::vector<CountChecksumSink> sinks(threads);
  if (exec.policy() == ExecPolicy::kSequential) {
    // The paper's Baseline is a plain pointer chase with no prefetches.
    // The generic SkipSearchOp under kSequential measured 3-49% slower
    // (its per-candidate prefetches), so fig11's speedup ratios stay
    // anchored to this loop (fig10/ext_btree do the same).
    run = RunPartitioned(exec, probe.size(), [&](uint32_t tid, Range r) {
      SkipSearchBaseline(list, probe, r.begin, r.end, sinks[tid]);
    });
  } else {
    run = exec.Run(FromOp(probe.size(), [&](uint32_t tid) {
      return SkipSearchOp<CountChecksumSink>(list, probe, sinks[tid]);
    }));
  }
  CountChecksumSink total;
  for (const auto& sink : sinks) total.Merge(sink);
  run.outputs = total.matches();
  run.checksum = total.checksum();
  return run;
}

RunStats RunSkipListInsert(Executor& exec, SkipList* list,
                           const Relation& input, uint64_t seed) {
  const uint32_t threads = exec.num_threads();
  if (exec.policy() == ExecPolicy::kSequential) {
    // The paper's Baseline insert: SkipList::Insert* spinning per level.
    // The generic SkipInsertOp under kSequential measured 10-43% slower
    // (interleaved medians, 2^14-2^22 elements), so fig11's Baseline
    // column keeps this loop.
    std::vector<uint64_t> inserted(threads, 0);
    RunStats run =
        RunPartitioned(exec, input.size(), [&](uint32_t tid, Range r) {
          inserted[tid] =
              threads <= 1
                  ? SkipInsertBaseline<false>(*list, input, r.begin, r.end,
                                              seed)
                  : SkipInsertBaseline<true>(*list, input, r.begin, r.end,
                                             seed + tid);
        });
    for (uint64_t v : inserted) run.outputs += v;
    return run;
  }
  // One SkipInsertOp (own RNG stream) per execution slot.  Inserts retire
  // nothing, so the epoch domain only pins; it outlives the run because
  // the Executor drops every slot's op before Run() returns.
  EpochManager epochs;
  const uint64_t before = list->size();
  RunStats run = exec.Run(FromOp(input.size(), [&](uint32_t slot) {
    return SkipInsertOp(*list, &epochs, input, seed + slot);
  }));
  run.outputs = list->size() - before;
  return run;
}

}  // namespace amac
