// Skip list write-path stage machines for the unified runtime: inserts and
// erases against a live, concurrently mutated list run under any ExecPolicy
// (and through the QueryScheduler above it), sharing the epoch scheme the
// concurrent hash table uses.
//
// SkipInsertOp is fully staged: the predecessor search parks per candidate
// node (one memory access per Step, reusing the kernel-grade
// SkipInsertSearchStep) and the splice try-acquires each level's
// predecessor latch, parking/retrying on contention (§3.2) — no latch is
// ever held across a park, so interleaving is deadlock-free by
// construction.  SkipEraseOp is a single synchronous Step
// (EraseSync spins internally; erases are the rare op in the serving
// mixes, and a staged top-down unlink would have to hold the victim latch
// across parks, which the deadlock argument forbids).
//
// Epoch discipline matches hashtable/concurrent_ops.h: one EpochGuard per
// op instance, re-pinned only when the op has zero in-flight writes (a
// parked search or splice holds raw SkipNode pointers in its state slot).
// Neither op has a vector interface; the vector policies take the scalar
// fallback, counted in EngineStats::vec_fallbacks.
#pragma once

#include <cstdint>

#include "common/macros.h"
#include "common/prefetch.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/run_stats.h"
#include "epoch/epoch.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_insert.h"

namespace amac {

/// Staged concurrent insert.  Duplicate keys are rejected (skip list
/// insert semantics, not an upsert; the duplicate is not counted in
/// WriteStats).  A key mid-erase is waited out via kRetry: the erase
/// linearizes first, then this insert proceeds.
class SkipInsertOp {
 public:
  struct State {
    InsertSearch search;  // ~0.5 KB: cursor + pred/succ vectors (§5.4)
    // The splice fields are set when the search completes; initialized
    // only so the compiler can see they are never read before that.
    SkipNode* node = nullptr;
    SkipNode* pred = nullptr;
    uint32_t height = 0;
    uint32_t splice_level = 0;
    int64_t key;
    int64_t payload;
    bool splicing;
  };

  SkipInsertOp(SkipList& list, EpochManager* epochs, const int64_t* keys,
               const int64_t* payloads, uint64_t seed)
      : list_(&list),
        keys_(keys),
        payloads_(payloads),
        rng_(seed),
        guard_(epochs) {}

  /// Inserts the (key, payload) rows of `input` instead of column arrays.
  SkipInsertOp(SkipList& list, EpochManager* epochs, const Relation& input,
               uint64_t seed)
      : list_(&list), rows_(input.data()), rng_(seed), guard_(epochs) {}

  void Start(State& st, uint64_t idx) {
    if (inflight_ == 0) guard_.Refresh();
    ++inflight_;
    if (rows_ != nullptr) {
      st.key = rows_[idx].key;
      st.payload = rows_[idx].payload;
    } else {
      st.key = keys_[idx];
      st.payload = payloads_[idx];
    }
    st.splicing = false;
    InitInsertSearch(*list_, st.search);
  }

  StepStatus Step(State& st) {
    if (!st.splicing) {
      const InsertStep r = SkipInsertSearchStep(st.search, st.key);
      if (r == InsertStep::kParked) return StepStatus::kParked;
      if (r == InsertStep::kDup) {
        --inflight_;
        return StepStatus::kDone;
      }
      st.height = SkipList::RandomHeight(rng_);
      st.node = list_->AllocNode(st.height, st.key, st.payload);
      st.splice_level = 0;
      st.pred = st.search.preds[0];
      st.splicing = true;
    }
    // Splice as many levels as latches allow (bottom-up), parking or
    // retrying instead of spinning.
    while (st.splice_level < st.height) {
      const uint32_t l = st.splice_level;
      SkipNode* pred = st.pred;
      if (!pred->latch.TryAcquire()) return StepStatus::kRetry;
      if (SkipNodeDeleted(pred)) {
        // Dying predecessor: re-walk this level, retry when we come round.
        pred->latch.Release();
        st.pred = FindPredAtLevel(*list_, st.key, l);
        return StepStatus::kRetry;
      }
      SkipNode* succ = LoadNextAcquire(pred, l);
      if (succ != nullptr && succ->key < st.key) {
        // A concurrent insert advanced this level; chase asynchronously.
        pred->latch.Release();
        st.pred = succ;
        PrefetchSkipNode(succ, static_cast<int32_t>(l));
        return StepStatus::kParked;
      }
      if (l == 0 && succ != nullptr && succ->key == st.key) {
        if (SkipNodeDeleted(succ)) {
          // Mid-erase duplicate: wait out the unlink via retry.
          pred->latch.Release();
          return StepStatus::kRetry;
        }
        pred->latch.Release();
        --inflight_;  // lost the race; abandon the allocated node
        return StepStatus::kDone;
      }
      st.node->next[l] = succ;
      StoreNextRelease(pred, l, st.node);
      pred->latch.Release();
      ++st.splice_level;
      if (st.splice_level < st.height) {
        st.pred = st.search.preds[st.splice_level];
      }
    }
    ClearSkipNodeLinking(st.node);
    list_->AddElems(1);
    ++writes_.inserts;
    --inflight_;
    return StepStatus::kDone;
  }

  const WriteStats& writes() const { return writes_; }

 private:
  SkipList* list_;
  const int64_t* keys_ = nullptr;
  const int64_t* payloads_ = nullptr;
  const Tuple* rows_ = nullptr;
  Rng rng_;
  EpochGuard guard_;
  WriteStats writes_;
  uint64_t inflight_ = 0;
};

/// Concurrent erase as a single synchronous Step (EraseSync spins
/// internally).  A missing key is a no-op (not counted).
class SkipEraseOp {
 public:
  struct State {
    int64_t key;
  };

  SkipEraseOp(SkipList& list, EpochManager* epochs, const int64_t* keys)
      : list_(&list), keys_(keys), guard_(epochs) {}

  void Start(State& st, uint64_t idx) {
    if (inflight_ == 0) guard_.Refresh();
    ++inflight_;
    st.key = keys_[idx];
    Prefetch(list_->head());
  }

  StepStatus Step(State& st) {
    if (list_->EraseSync(st.key, guard_)) ++writes_.erases;
    --inflight_;
    return StepStatus::kDone;
  }

  const WriteStats& writes() const { return writes_; }

 private:
  SkipList* list_;
  const int64_t* keys_;
  EpochGuard guard_;
  WriteStats writes_;
  uint64_t inflight_ = 0;
};

}  // namespace amac
