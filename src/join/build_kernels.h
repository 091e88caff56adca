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
// (join/join_ops.h, core/ops.h) through Run(); they share InsertLocked
// below.  BuildBaseline stays as the sequential oracle: it spins on a held
// latch (kSync) or elides atomics entirely (kSync=false, single-threaded).
#pragma once

#include <cstdint>

#include "hashtable/chained_table.h"
#include "relation/relation.h"

namespace amac {

namespace detail {

/// Insert with the header-evict discipline; caller holds the latch (or is
/// single-threaded).  Mirrors ChainedHashTable::InsertInto but lives here
/// so BuildOp and BuildBaseline can inline it.
inline void InsertLocked(ChainedHashTable& ht, BucketNode* head,
                         const Tuple& t) {
  if (head->count == BucketNode::kTuplesPerNode) {
    BucketNode* spill = ht.AllocOverflowNode();
    spill->count = head->count;
    spill->tuples[0] = head->tuples[0];
    spill->tuples[1] = head->tuples[1];
    spill->next = head->next;
    head->next = spill;
    head->count = 0;
    // Slot invariant (chained_table.h): the append below refills slot 0;
    // slot 1 must not keep the evicted tuple's key as a ghost.
    head->tuples[1].key = BucketNode::kEmptySlotKey;
  }
  head->tuples[head->count++] = t;
  ht.NoteInsertedKey(t.key);
}

template <bool kSync>
inline void InsertSpin(ChainedHashTable& ht, BucketNode* head,
                       const Tuple& t) {
  if constexpr (kSync) {
    head->latch.Acquire();
    InsertLocked(ht, head, t);
    head->latch.Release();
  } else {
    InsertLocked(ht, head, t);
  }
}

}  // namespace detail

/// Baseline build: dependent access per tuple, no prefetch.
template <bool kSync>
void BuildBaseline(const Relation& build, uint64_t begin, uint64_t end,
                   ChainedHashTable& ht) {
  for (uint64_t i = begin; i < end; ++i) {
    detail::InsertSpin<kSync>(ht, ht.BucketForKey(build[i].key), build[i]);
  }
}

}  // namespace amac
