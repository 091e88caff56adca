#include "groupby/groupby.h"

#include "groupby/groupby_kernels.h"
#include "groupby/groupby_ops.h"

namespace amac {

RunStats RunGroupBy(Executor& exec, const Relation& input,
                    AggregateTable* table, GroupSummary* summary) {
  RunStats run;
  const uint32_t threads = exec.num_threads();
  if (exec.policy() == ExecPolicy::kSequential) {
    // The paper's Baseline is the plain no-prefetch aggregation loop.  The
    // generic GroupByOp under kSequential measured 2-11% slower than it
    // (interleaved medians, fig09's 2^13 and 2^23 inputs), so fig09's
    // Baseline column keeps this loop, as the skip list drivers do.
    run = RunPartitioned(exec, input.size(), [&](uint32_t, Range r) {
      if (threads <= 1) {
        GroupByBaseline<false>(input, r.begin, r.end, *table);
      } else {
        GroupByBaseline<true>(input, r.begin, r.end, *table);
      }
    });
  } else if (threads <= 1) {
    // Unsynchronized latches on the single-threaded path.
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
