// Group-by latch helpers and the no-prefetch Baseline aggregation loop.
//
// Every input tuple either updates the aggregates of its key's group node
// or creates that node — a read/write dependency on the bucket, guarded by
// the bucket latch.  This is the workload where the paper's §3.2 latch
// handling matters.  The prefetching schedules all run the generic
// GroupByOp (groupby/groupby_ops.h), which try-acquires the latch and
// parks on failure, then walks the chain in a separate latched stage (the
// "extra intermediate stage" of §3.1).  GroupByBaseline spins on the latch
// and does the whole latched walk+update in one go; it stays as the
// sequential oracle and as RunGroupBy's kSequential path (fig09 Baseline).
#pragma once

#include <cstdint>

#include "common/macros.h"
#include "groupby/agg_table.h"
#include "relation/relation.h"

namespace amac {

namespace detail {

template <bool kSync>
inline bool GroupTryLatch(GroupNode* head) {
  if constexpr (kSync) {
    return head->latch.TryAcquire();
  } else {
    return head->latch.TryAcquireUnsync();
  }
}

template <bool kSync>
inline void GroupUnlatch(GroupNode* head) {
  if constexpr (kSync) {
    head->latch.Release();
  } else {
    head->latch.ReleaseUnsync();
  }
}

template <bool kSync>
inline void GroupSpinLatch(GroupNode* head) {
  if constexpr (kSync) {
    head->latch.Acquire();
  } else {
    AMAC_DCHECK(!head->latch.IsHeld());
    (void)head->latch.TryAcquireUnsync();
  }
}

/// Latched walk + update/append, all in one go (used by GroupByBaseline).
/// Caller has already acquired the header latch; a new group's node comes
/// from `cursor`.
inline void UpdateOrInsertLocked(AggregateTable& table, GroupNode* head,
                                 int64_t key, int64_t payload,
                                 AggregateTable::PoolCursor& cursor) {
  if (!head->used) {
    head->used = 1;
    head->key = key;
    head->count = 0;
    head->Accumulate(payload);
    return;
  }
  GroupNode* node = head;
  while (true) {
    if (node->key == key) {
      node->Accumulate(payload);
      return;
    }
    if (node->next == nullptr) break;
    node = node->next;
  }
  GroupNode* fresh = table.AllocNode(cursor);
  fresh->used = 1;
  fresh->key = key;
  fresh->count = 0;
  fresh->Accumulate(payload);
  // O(1) push-front behind the header; chain order is irrelevant.
  fresh->next = head->next;
  head->next = fresh;
}

}  // namespace detail

template <bool kSync>
void GroupByBaseline(const Relation& input, uint64_t begin, uint64_t end,
                     AggregateTable& table) {
  AggregateTable::PoolCursor cursor;
  for (uint64_t i = begin; i < end; ++i) {
    GroupNode* head = table.HeadForKey(input[i].key);
    detail::GroupSpinLatch<kSync>(head);
    detail::UpdateOrInsertLocked(table, head, input[i].key, input[i].payload,
                                 cursor);
    detail::GroupUnlatch<kSync>(head);
  }
}

}  // namespace amac
