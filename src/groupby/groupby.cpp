#include "groupby/groupby.h"

#include "groupby/groupby_ops.h"

namespace amac {

RunStats RunGroupBy(Executor& exec, const Relation& input,
                    AggregateTable* table, GroupSummary* summary) {
  RunStats run;
  if (exec.num_threads() <= 1) {
    // Unsynchronized latches on the single-threaded path.
    run = exec.RunOp(input.size(), [&](uint32_t) {
      return GroupByOp<false>(*table, input);
    });
  } else {
    run = exec.RunOp(input.size(), [&](uint32_t) {
      return GroupByOp<true>(*table, input);
    });
  }
  const GroupSummary result = table->Summarize(&exec.pool());
  run.outputs = result.groups;
  run.checksum = result.checksum;
  if (summary != nullptr) *summary = result;
  return run;
}

}  // namespace amac
