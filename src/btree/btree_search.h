// B+-tree search helpers.
//
// One stage = one node visit (four cache lines prefetched together).  The
// tree is balanced, so — unlike the BST and skip list — every lookup needs
// exactly `height` stages: the *regular* regime where the paper expects
// GP/SPP to do well.  Comparing ext_btree against fig10_bst isolates how
// much of AMAC's advantage comes from irregularity alone.  Every schedule
// runs the generic BTreeSearchOp (btree/btree_ops.h).
#pragma once

#include <cstdint>

#include "btree/btree.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace amac {

inline void PrefetchBTreeNode(const BTreeNode* node) {
  PrefetchRange(node, sizeof(BTreeNode));
}

/// One node visit: descend an inner node or resolve a leaf.
/// Returns true when finished (match emitted or key absent).
template <typename Sink>
inline bool VisitBTreeNode(const BTreeNode* node, int64_t key, uint64_t rid,
                           Sink& sink, const BTreeNode** next) {
  if (!node->is_leaf) {
    uint32_t i = 0;
    while (i < node->count && key >= node->keys[i]) ++i;
    *next = node->children[i];
    return false;
  }
  const uint32_t i = node->LowerBound(key);
  if (i < node->count && node->keys[i] == key) {
    sink.Emit(rid, node->leaf.payloads[i]);
  }
  return true;
}

/// VisitBTreeNode with the node-internal key scans replaced by the SIMD
/// multi-key compares (common/simd.h): one masked 4-wide compare sweep
/// instead of an up-to-15-iteration branchy loop.  keys[] is sorted and
/// followed in-struct by the child/payload union, satisfying the
/// CountSorted* readability contract; results are identical to the scalar
/// visit on every node.
template <typename Sink>
inline bool VisitBTreeNodeSimd(const BTreeNode* node, int64_t key,
                               uint64_t rid, Sink& sink,
                               const BTreeNode** next) {
  if (!node->is_leaf) {
    *next = node->children[CountSortedLessEq(node->keys, node->count, key)];
    return false;
  }
  const uint32_t i = CountSortedLess(node->keys, node->count, key);
  if (i < node->count && node->keys[i] == key) {
    sink.Emit(rid, node->leaf.payloads[i]);
  }
  return true;
}

}  // namespace amac
