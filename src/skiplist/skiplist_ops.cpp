#include "skiplist/skiplist_ops.h"

#include <vector>

#include "core/scheduler.h"
#include "epoch/epoch.h"
#include "join/sink.h"
#include "skiplist/skiplist_search.h"
#include "skiplist/skiplist_write_ops.h"

namespace amac {

RunStats RunSkipListSearch(Executor& exec, const SkipList& list,
                           const Relation& probe) {
  std::vector<CountChecksumSink> sinks(exec.num_threads());
  RunStats run = exec.RunOp(probe.size(), [&](uint32_t tid) {
    return SkipSearchOp<CountChecksumSink>(list, probe, sinks[tid]);
  });
  CountChecksumSink total;
  for (const auto& sink : sinks) total.Merge(sink);
  run.outputs = total.matches();
  run.checksum = total.checksum();
  return run;
}

RunStats RunSkipListInsert(Executor& exec, SkipList* list,
                           const Relation& input, uint64_t seed) {
  // One SkipInsertOp (own RNG stream) per execution slot.  Inserts retire
  // nothing, so the epoch domain only pins; it outlives the run because
  // the Executor drops every slot's op before RunOp() returns.
  EpochManager epochs;
  const uint64_t before = list->size();
  RunStats run = exec.RunOp(input.size(), [&](uint32_t slot) {
    return SkipInsertOp(*list, &epochs, input, seed + slot);
  });
  run.outputs = list->size() - before;
  return run;
}

}  // namespace amac
