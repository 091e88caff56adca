// Bump-allocated node pool, shared by the chained join table (overflow
// nodes, hashtable/chained_table.h) and the aggregation table (group
// nodes, groupby/agg_table.h).
//
// Chunk rule.  A caller that inserts many nodes hands them out from its own
// NodePool::Cursor, which claims a chunk of consecutive nodes from the
// pool's shared index with one fetch_add and hands them out one by one.
// The shared index is therefore written once per chunk, not once per node,
// and it sits on its own cache line, so those writes never invalidate the
// line holding the owning table's bucket pointer and mask, which every
// insert reads.  A cursor belongs to one execution slot's operation (the
// build and group-by ops keep one as a member, the tests' oracle loops a
// local one, ChainedHashTable::InsertUnsync the table's own), not to a
// thread: a query's op migrates across workers between morsels, as epoch
// participants do (epoch/epoch.h).  Alloc() without a cursor claims a
// single node.
//
// Chunk size and extra capacity.  A pool promising `capacity` nodes claims
// in chunks of capacity / kPoolMaxClaimants nodes, clamped to
// [1, kPoolChunkNodes].  A cursor that is dropped or stops inserting
// strands at most chunk - 1 unused nodes, so an auto-sized pool reserves
// kPoolMaxClaimants * (chunk - 1) nodes on top of `capacity`: with at most
// kPoolMaxClaimants cursors claiming between Reset()s, an "exhausted" abort
// means more than `capacity` nodes were really handed out.  A pool of an
// explicit size (kExact) reserves nothing extra, so stranded tails count
// against it.  Small pools claim single nodes and strand nothing.
//
// Nodes are reserved, not constructed: Alloc placement-news each node as
// it hands it out, so pool pages no cursor reaches, the extra capacity
// included, are never backed by memory.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>

#include "common/aligned.h"
#include "common/macros.h"

namespace amac {

/// Most nodes one claim takes from a pool's shared index (64 cache-line
/// nodes = 4 KiB).
inline constexpr uint64_t kPoolChunkNodes = 64;

/// Cursors an auto-sized pool reserves stranded chunk tails for.
inline constexpr uint64_t kPoolMaxClaimants = 64;

template <typename Node>
class NodePool {
 public:
  /// One claimant's run of claimed, not yet handed out nodes.  Not
  /// thread-safe: one cursor per execution slot.  A copy starts empty, so
  /// a copied op never hands out its source's nodes; a move takes them.
  class Cursor {
   public:
    Cursor() = default;
    Cursor(const Cursor&) {}
    Cursor& operator=(const Cursor&) {
      next_ = end_ = nullptr;
      return *this;
    }
    Cursor(Cursor&& other) noexcept : next_(other.next_), end_(other.end_) {
      other.next_ = other.end_ = nullptr;
    }

   private:
    friend class NodePool;
    Node* next_ = nullptr;
    Node* end_ = nullptr;
  };

  enum class Sizing : uint8_t { kAuto, kExact };

  /// `exhausted` is the abort message of a claim past the pool's end.
  NodePool(uint64_t capacity, Sizing sizing, const char* exhausted)
      : chunk_(std::clamp<uint64_t>(capacity / kPoolMaxClaimants, 1,
                                    kPoolChunkNodes)),
        exhausted_(exhausted) {
    const uint64_t extra =
        sizing == Sizing::kAuto ? kPoolMaxClaimants * (chunk_ - 1) : 0;
    nodes_ = AlignedBuffer<Node>::Uninitialized(capacity + extra);
  }

  /// Hand out one node straight from the shared index.
  Node* Alloc() {
    const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    AMAC_CHECK_MSG(idx < nodes_.size(), exhausted_);
    return new (nodes_.data() + idx) Node();
  }

  /// Hand out the cursor's next node, claiming a chunk when it runs dry.
  Node* Alloc(Cursor& cursor) {
    if (AMAC_UNLIKELY(cursor.next_ == cursor.end_)) Claim(cursor);
    return new (cursor.next_++) Node();
  }

  /// Restart at index 0.  Every outstanding cursor must be dropped first:
  /// its claimed nodes are handed out again.
  void Reset() { next_.store(0, std::memory_order_relaxed); }

  /// Nodes claimed so far: those handed out plus the unused tails cursors
  /// hold or stranded.
  uint64_t claimed() const {
    return std::min<uint64_t>(next_.load(std::memory_order_relaxed),
                              nodes_.size());
  }

 private:
  __attribute__((noinline)) void Claim(Cursor& cursor) {
    const uint64_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
    AMAC_CHECK_MSG(begin < nodes_.size(), exhausted_);
    cursor.next_ = nodes_.data() + begin;
    cursor.end_ = nodes_.data() + std::min(begin + chunk_, nodes_.size());
  }

  AlignedBuffer<Node> nodes_;
  uint64_t chunk_;
  const char* exhausted_;
  /// The shared claim index, alone on its cache line (the alignment pads
  /// the pool to whole lines).
  alignas(kCacheLineSize) std::atomic<uint64_t> next_{0};
};

}  // namespace amac
