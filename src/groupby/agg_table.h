// Aggregation hash table for the group-by operator.
//
// Paper §4: "we extend the hash table used in hash join with an additional
// aggregation field ... We aggregate the values with six aggregation
// functions (avg, count, min, max, sum and sum squared), which are applied
// upon a match in the hash table."
//
// One group per 64-byte node: the running state of all six aggregates
// (avg = sum/count is derived) plus the chain pointer.  The first node of
// each chain is clustered with the bucket header, like the join table.
// Groups past a bucket's header come from a node pool (hashtable/
// node_pool.h) sized for the worst case, every group in an overflow node,
// plus room for the chunk tails cursors strand.  Inserting callers take
// nodes through a PoolCursor of their own, which claims them in chunks of
// up to kPoolChunkNodes, so concurrent group-bys share one atomic write
// per chunk instead of one per new group.  The pool is reserved, not
// constructed: each node is constructed as it is handed out.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "common/aligned.h"
#include "common/hash.h"
#include "common/latch.h"
#include "common/macros.h"
#include "hashtable/node_pool.h"
#include "relation/relation.h"

namespace amac {

struct AMAC_CACHE_ALIGNED GroupNode {
  /// Key an unused node holds.  The invariant (maintained by the table's
  /// constructor, Clear() and the pool's construct-on-hand-out) lets the
  /// gathered group-by walk (vec_groupby.h) test membership with a key
  /// compare alone: a used node never stores the sentinel unless the
  /// caller aggregates the sentinel key itself, which the vectorized path
  /// detects per lane and routes through the exact scalar step.
  static constexpr int64_t kEmptyGroupKey =
      std::numeric_limits<int64_t>::min();

  Latch latch;        ///< bucket-level latch (meaningful on headers)
  uint8_t used = 0;   ///< 0 = empty header slot
  uint8_t pad[6] = {};
  int64_t key = kEmptyGroupKey;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  uint64_t sumsq = 0;
  GroupNode* next = nullptr;

  /// Fold one payload into all aggregates.
  void Accumulate(int64_t payload) {
    if (used && count > 0) {
      min = payload < min ? payload : min;
      max = payload > max ? payload : max;
    } else {
      min = max = payload;
    }
    ++count;
    sum += payload;
    sumsq += static_cast<uint64_t>(payload) * static_cast<uint64_t>(payload);
  }

  double Avg() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};
static_assert(sizeof(GroupNode) == kCacheLineSize);

class ThreadPool;

/// What one pass over every group of an AggregateTable yields.
struct GroupSummary {
  uint64_t groups = 0;    ///< distinct groups stored
  uint64_t rows = 0;      ///< rows folded in (sum of the count aggregates)
  uint64_t checksum = 0;  ///< order-independent, over every aggregate
};

class AggregateTable {
 public:
  using PoolCursor = NodePool<GroupNode>::Cursor;

  struct Options {
    HashKind hash_kind = HashKind::kMurmur;
    /// Expected chain nodes per bucket for `expected_groups` distinct keys.
    double target_nodes_per_bucket = 1.0;
  };

  /// With a `team`, the bucket array is constructed (first-touched) in
  /// contiguous ranges on it (ForRanges, common/thread_pool.h); without
  /// one, on the calling thread.
  AggregateTable(uint64_t expected_groups, Options options,
                 ThreadPool* team = nullptr);

  uint64_t BucketIndex(int64_t key) const {
    return hash_kind_ == HashKind::kMurmur
               ? HashToBucket<HashKind::kMurmur>(static_cast<uint64_t>(key),
                                                 bucket_mask_)
               : HashToBucket<HashKind::kRadix>(static_cast<uint64_t>(key),
                                                bucket_mask_);
  }
  GroupNode* HeadForKey(int64_t key) { return &buckets_[BucketIndex(key)]; }

  /// Hand out one overflow node from `cursor`, which claims a chunk from
  /// the shared pool when it runs dry.  Thread-safe across cursors.
  GroupNode* AllocNode(PoolCursor& cursor) { return pool_.Alloc(cursor); }
  /// Hand out one overflow node claimed alone from the shared pool.
  GroupNode* AllocNode() { return pool_.Alloc(); }

  uint64_t num_buckets() const { return buckets_.size(); }
  GroupNode* buckets() { return buckets_.data(); }
  const GroupNode* buckets() const { return buckets_.data(); }
  uint64_t bucket_mask() const { return bucket_mask_; }
  HashKind hash_kind() const { return hash_kind_; }

  /// Reset to empty (keeps the allocations).  The pool restarts at its
  /// first node, so no caller's cursor may outlive the call.
  void Clear();

  /// Visit every group (headers + overflow chains); not a hot path.  The
  /// reference the tests check Summarize against.
  void ForEachGroup(const std::function<void(const GroupNode&)>& fn) const;

  /// One pass over every group, split by bucket range on `team` (see
  /// ForRanges; inline without one).  `rows` is the row count that reached
  /// the aggregation, which the plan layer reads off after a run to
  /// observe pipeline selectivity without any per-row instrumentation.
  /// Engines that compute the same aggregation agree on `checksum`.
  GroupSummary Summarize(ThreadPool* team = nullptr) const;

  /// Summarize().groups.
  uint64_t CountGroups() const;

  /// Summarize().checksum.
  uint64_t Checksum() const;

 private:
  AlignedBuffer<GroupNode> buckets_;
  uint64_t bucket_mask_ = 0;
  HashKind hash_kind_;
  NodePool<GroupNode> pool_;
};

}  // namespace amac
