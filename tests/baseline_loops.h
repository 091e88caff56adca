// The paper's no-prefetch Baseline loops, kept as test oracles.
//
// Every schedule of every operator runs the one generic op per operator
// (kSequential included, with prefetches off), so these plain loops no
// longer run in the library.  The tests compare each schedule's results
// against them: one lookup or insert at a time, no stage machine, no
// software prefetch.  All of them are single-threaded.  ProbeBaseline and
// BstSearchBaseline stay in src/ (join/probe_kernels.h, bst/bst_search.h)
// because benches and examples time them.
#pragma once

#include <cstdint>

#include "btree/btree.h"
#include "btree/btree_search.h"
#include "common/rng.h"
#include "groupby/agg_table.h"
#include "hashtable/chained_table.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"

namespace amac {

/// Build: insert each tuple into its bucket (O(1) header eviction).
inline void BuildBaseline(const Relation& build, uint64_t begin, uint64_t end,
                          ChainedHashTable& ht) {
  ChainedHashTable::PoolCursor cursor;
  for (uint64_t i = begin; i < end; ++i) {
    ht.InsertLocked(ht.BucketForKey(build[i].key), build[i], cursor);
  }
}

/// Group-by: walk the key's chain and update its group, or push a new
/// group node behind the bucket header.
inline void GroupByBaseline(const Relation& input, uint64_t begin,
                            uint64_t end, AggregateTable& table) {
  AggregateTable::PoolCursor cursor;
  for (uint64_t i = begin; i < end; ++i) {
    const int64_t key = input[i].key;
    GroupNode* head = table.HeadForKey(key);
    if (!head->used) {
      head->used = 1;
      head->key = key;
      head->count = 0;
      head->Accumulate(input[i].payload);
      continue;
    }
    GroupNode* node = head;
    while (node->key != key && node->next != nullptr) node = node->next;
    if (node->key == key) {
      node->Accumulate(input[i].payload);
      continue;
    }
    GroupNode* fresh = table.AllocNode(cursor);
    fresh->used = 1;
    fresh->key = key;
    fresh->count = 0;
    fresh->Accumulate(input[i].payload);
    fresh->next = head->next;
    head->next = fresh;
  }
}

/// B+-tree search: descend from the root, one node visit per level.
template <typename Sink>
void BTreeSearchBaseline(const BTree& tree, const Relation& probe,
                         uint64_t begin, uint64_t end, Sink& sink) {
  for (uint64_t i = begin; i < end; ++i) {
    const BTreeNode* node = tree.root();
    const BTreeNode* next = nullptr;
    while (!VisitBTreeNode(node, probe[i].key, i, sink, &next)) node = next;
  }
}

/// Skip list search: SkipList::Find per probe key.
template <typename Sink>
void SkipSearchBaseline(const SkipList& list, const Relation& probe,
                        uint64_t begin, uint64_t end, Sink& sink) {
  for (uint64_t i = begin; i < end; ++i) {
    const SkipNode* match = list.Find(probe[i].key);
    if (match != nullptr) sink.Emit(i, match->payload);
  }
}

/// Skip list insert: SkipList::InsertUnsync per tuple, tower heights drawn
/// from one RNG seeded `seed`.  Returns the number of new elements.
inline uint64_t SkipInsertBaseline(SkipList& list, const Relation& input,
                                   uint64_t begin, uint64_t end,
                                   uint64_t seed) {
  Rng rng(seed);
  uint64_t inserted = 0;
  for (uint64_t i = begin; i < end; ++i) {
    inserted += list.InsertUnsync(input[i].key, input[i].payload, rng) ? 1 : 0;
  }
  return inserted;
}

}  // namespace amac
