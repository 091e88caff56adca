#include "groupby/groupby.h"

#include "common/barrier.h"
#include "common/cycle_timer.h"
#include "common/thread_pool.h"
#include "groupby/groupby_kernels.h"
#include "groupby/groupby_ops.h"

namespace amac {

RunStats RunGroupBy(Executor& exec, const Relation& input,
                    AggregateTable* table, GroupSummary* summary) {
  RunStats run;
  const uint32_t threads = exec.num_threads();
  if (exec.policy() == ExecPolicy::kSequential) {
    // The paper's Baseline is the plain no-prefetch aggregation loop; keep
    // the hand kernel (as the skiplist/BST drivers do) so fig09's speedup
    // ratios stay anchored to the no-prefetch chase.
    run.inputs = input.size();
    run.threads = std::max(1u, threads);
    WallTimer wall;
    CycleTimer cycles;
    if (threads <= 1) {
      GroupByBaseline<false>(input, 0, input.size(), *table);
    } else {
      SpinBarrier barrier(threads);
      exec.pool().Run([&](uint32_t tid) {
        const Range r = PartitionRange(input.size(), threads, tid);
        barrier.Wait();
        GroupByBaseline<true>(input, r.begin, r.end, *table);
        barrier.Wait();
      });
    }
    run.cycles = cycles.Elapsed();
    run.seconds = wall.ElapsedSeconds();
    run.dispatch_seconds = run.seconds;
  } else if (threads <= 1) {
    // Unsynchronized latches on the single-threaded path, as the hand
    // kernels used.
    run = exec.Run(FromOp(input.size(), [&](uint32_t) {
      return GroupByOp<false>(*table, input);
    }));
  } else {
    run = exec.Run(FromOp(input.size(), [&](uint32_t) {
      return GroupByOp<true>(*table, input);
    }));
  }
  const GroupSummary result = table->Summarize(&exec.pool());
  run.outputs = result.groups;
  run.checksum = result.checksum;
  if (summary != nullptr) *summary = result;
  return run;
}

}  // namespace amac
