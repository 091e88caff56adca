// Hand-written hash table probe kernels: the no-prefetch Baseline and the
// paper's Listing 1 AMAC.
//
// Both implement the same contract:
//
//   for every probe tuple t in [begin, end): walk the chain of t.key's
//   bucket; for every stored tuple with a matching key call
//   sink.Emit(rid, payload).  With kEarlyExit the walk stops at the first
//   match (unique build keys, paper's "non-uniform" traversal); without it
//   the full chain is always visited (paper's "uniform" traversal and the
//   correct semantics for skewed, non-unique build keys).
//
// Every schedule (GP, SPP, AMAC, coroutines, ...) of the probe runs the
// generic ProbeOp (join/join_ops.h) through Run(); these two loops stay as
// the sequential oracle and the Listing-1 reference that prices the
// generic engine's abstraction cost.  AMAC keeps the terminal/initial stage
// merge (§3.1 optimization 1) and a rolling (non-modulo) circular-buffer
// cursor.
#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/prefetch.h"
#include "hashtable/chained_table.h"
#include "relation/relation.h"

namespace amac {

/// Visit one chain node: compare stored keys, emit matches.
/// Returns true if the lookup is finished at this node (match found under
/// early-exit, or end of chain); otherwise *next is the follow-on node.
template <bool kEarlyExit, typename Sink>
inline bool VisitNode(const BucketNode* node, int64_t key, uint64_t rid,
                      Sink& sink, const BucketNode** next) {
  for (uint32_t i = 0; i < node->count; ++i) {
    if (node->tuples[i].key == key) {
      sink.Emit(rid, node->tuples[i].payload);
      if constexpr (kEarlyExit) return true;
    }
  }
  if (node->next == nullptr) return true;
  *next = node->next;
  return false;
}

// ---------------------------------------------------------------------------
// Baseline: plain dependent pointer chase, no software prefetching. MLP is
// whatever the core's out-of-order window extracts on its own.
// ---------------------------------------------------------------------------
template <bool kEarlyExit, typename Sink>
void ProbeBaseline(const ChainedHashTable& ht, const Relation& probe,
                   uint64_t begin, uint64_t end, Sink& sink) {
  for (uint64_t i = begin; i < end; ++i) {
    const int64_t key = probe[i].key;
    const BucketNode* node = ht.BucketForKey(key);
    const BucketNode* next = nullptr;
    while (!VisitNode<kEarlyExit>(node, key, i, sink, &next)) node = next;
  }
}

// ---------------------------------------------------------------------------
// AMAC (paper Listing 1): every in-flight lookup owns a slot in a
// software-managed circular buffer holding its full state.  Slots advance
// independently; when a lookup finishes, the same stage execution
// immediately initiates the next lookup (terminal/initial merge, §3.1),
// keeping the number of in-flight memory accesses constant.  The cursor is
// a rolling counter, not a modulo (§3.1), so any in-flight count works.
// ---------------------------------------------------------------------------
template <bool kEarlyExit, typename Sink>
void ProbeAmac(const ChainedHashTable& ht, const Relation& probe,
               uint64_t begin, uint64_t end, uint32_t num_inflight,
               Sink& sink) {
  AMAC_CHECK(num_inflight >= 1);
  // The five state fields of Figure 4: rid(idx), key, payload (carried by
  // the sink here), ptr, stage.  For the probe the stage collapses to
  // active/empty because stage 0 is merged into lookup completion.
  struct AmacState {
    const BucketNode* ptr;
    int64_t key;
    uint64_t rid;
    bool active;
  };
  std::vector<AmacState> s(num_inflight);

  uint64_t next_input = begin;
  uint32_t num_active = 0;

  // Prologue: fill the circular buffer (code stage 0 for the first W
  // lookups, prefetching their bucket headers).
  for (uint32_t k = 0; k < num_inflight; ++k) {
    if (next_input < end) {
      const int64_t key = probe[next_input].key;
      const BucketNode* bucket = ht.BucketForKey(key);
      Prefetch(bucket);
      s[k] = AmacState{bucket, key, next_input, true};
      ++next_input;
      ++num_active;
    } else {
      s[k].active = false;
    }
  }

  // Main loop: rolling cursor over the circular buffer.
  uint32_t k = 0;
  while (num_active > 0) {
    AmacState& st = s[k];
    if (st.active) {
      const BucketNode* next = nullptr;
      if (!VisitNode<kEarlyExit>(st.ptr, st.key, st.rid, sink, &next)) {
        Prefetch(next);
        st.ptr = next;
      } else if (next_input < end) {
        // Terminal stage merged with the next lookup's initial stage: the
        // slot is refilled and a new prefetch issued immediately.
        const int64_t key = probe[next_input].key;
        const BucketNode* bucket = ht.BucketForKey(key);
        Prefetch(bucket);
        st = AmacState{bucket, key, next_input, true};
        ++next_input;
      } else {
        st.active = false;
        --num_active;
      }
    }
    // Rolling counter instead of modulo (§3.1): supports arbitrary W.
    ++k;
    if (k == num_inflight) k = 0;
  }
}

}  // namespace amac
