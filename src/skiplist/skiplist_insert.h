// Skip list insert helpers (paper Table 1 col 5).
//
// An insert is a predecessor search (memory-bound, one stage per candidate
// node) followed by the splice (CPU-bound: random level generation, node
// allocation, latch acquire/release loops — §5.4 calls out exactly these
// function calls).  The staged schedules run the generic SkipInsertOp
// (skiplist/skiplist_write_ops.h), which keeps the predecessor/successor
// vectors below inside the per-lookup state slot: ~0.5 KB per in-flight
// lookup, matching §5.4's description of the circular-buffer footprint.
#pragma once

#include <cstdint>

#include "common/prefetch.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_search.h"

namespace amac {

/// Search-phase state of one insert: the cursor plus the collected
/// predecessor/successor vectors (the 0.5 KB the paper attributes to each
/// in-flight skip list insert).
struct InsertSearch {
  SkipNode* cur;
  int32_t level;
  SkipNode* preds[SkipList::kMaxLevel];
  SkipNode* succs[SkipList::kMaxLevel];
};

inline void InitInsertSearch(SkipList& list, InsertSearch& s) {
  s.cur = list.head();
  s.level = static_cast<int32_t>(SkipList::kMaxLevel) - 1;
}

enum class InsertStep {
  kParked,  ///< issued a prefetch; resume later
  kDup,     ///< key already present
  kReady,   ///< preds/succs complete; splice may begin
};

/// One memory access worth of predecessor search.
inline InsertStep SkipInsertSearchStep(InsertSearch& s, int64_t key) {
  // Acquire-loads throughout: this search runs concurrently with other
  // threads' splices in the multi-threaded insert workload.
  while (true) {
    SkipNode* cand = LoadNextAcquire(s.cur, s.level);
    if (cand != nullptr && cand->key < key) {
      s.cur = cand;
      SkipNode* nxt = LoadNextAcquire(cand, s.level);
      if (nxt != nullptr) {
        PrefetchSkipNode(nxt, s.level);
        return InsertStep::kParked;
      }
      continue;
    }
    if (cand != nullptr && cand->key == key && !SkipNodeDeleted(cand)) {
      return InsertStep::kDup;
    }
    // A deleted equal-key candidate is mid-unlink: record preds/succs as
    // usual and let the splice's level-0 re-validation wait it out.
    s.preds[s.level] = s.cur;
    s.succs[s.level] = cand;
    if (s.level == 0) return InsertStep::kReady;
    --s.level;
    SkipNode* nxt = LoadNextAcquire(s.cur, s.level);
    if (nxt != nullptr && nxt != cand) {
      PrefetchSkipNode(nxt, s.level);
      return InsertStep::kParked;
    }
  }
}

}  // namespace amac
