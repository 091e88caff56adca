// Hash join build helpers and the no-prefetch Baseline build.
//
// The build inserts every R tuple into its bucket.  Inserts use the O(1)
// header-eviction discipline of the Balkesen table, so the dependent-access
// chain is exactly one cache line (the bucket header); what the prefetching
// schedules hide is that single miss.  This matches the paper's observation
// that "the build phase overall is not sensitive to skew because the link
// list insertions are uniform operations regardless of the data
// distribution" (§5.1).
//
// Every prefetching schedule runs the generic BuildOp / HashBuildOp
// (join/join_ops.h, core/ops.h) through Run(); BuildOp and BuildBaseline
// share ChainedHashTable::InsertLocked.  BuildBaseline stays as the
// sequential oracle: it spins on a held latch (kSync) or elides atomics
// entirely (kSync=false, single-threaded).  Each takes overflow nodes
// through a pool cursor of its own (hashtable/node_pool.h).
#pragma once

#include <cstdint>

#include "hashtable/chained_table.h"
#include "relation/relation.h"

namespace amac {

/// Baseline build: dependent access per tuple, no prefetch.
template <bool kSync>
void BuildBaseline(const Relation& build, uint64_t begin, uint64_t end,
                   ChainedHashTable& ht) {
  ChainedHashTable::PoolCursor cursor;
  for (uint64_t i = begin; i < end; ++i) {
    BucketNode* head = ht.BucketForKey(build[i].key);
    if constexpr (kSync) head->latch.Acquire();
    ht.InsertLocked(head, build[i], cursor);
    if constexpr (kSync) head->latch.Release();
  }
}

}  // namespace amac
