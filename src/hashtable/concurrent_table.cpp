#include "hashtable/concurrent_table.h"

#include <atomic>
#include <unordered_set>

namespace amac {

using namespace concurrent_detail;  // NOLINT: Load*/Store* helpers

ConcurrentChainedTable::ConcurrentChainedTable(uint64_t expected_live,
                                               EpochManager* epochs,
                                               Options options)
    : epochs_(epochs),
      hash_kind_(options.hash_kind),
      compact_tombstones_(options.compact_tombstones) {
  AMAC_CHECK(epochs_ != nullptr);
  const double target = options.target_tuples_per_slot > 0
                            ? options.target_tuples_per_slot
                            : 1.0;
  const uint64_t want = static_cast<uint64_t>(
      static_cast<double>(std::max<uint64_t>(1, expected_live)) /
      (BucketNode::kTuplesPerNode * target));
  const uint64_t num_buckets = NextPow2(std::max<uint64_t>(1, want));
  bucket_mask_ = num_buckets - 1;
  // BucketNode's member initializers already mark both slots empty.
  buckets_ = AlignedBuffer<BucketNode>(num_buckets, kCacheLineSize);
  uint64_t first = options.initial_overflow_capacity;
  if (first == 0) first = std::max<uint64_t>(64, expected_live / 4);
  slabs_.push_back(std::make_unique<Slab>(first));
  current_slab_.store(slabs_.back().get(), std::memory_order_release);
}

ConcurrentChainedTable::~ConcurrentChainedTable() = default;

void ConcurrentChainedTable::InitNode(BucketNode* node) {
  // The node is unreachable here (fresh slab slot, or recycled after its
  // epoch grace period); plain stores are ordered by the release store
  // that later links it.
  node->latch.ReleaseUnsync();
  node->count = 0;
  for (uint8_t& p : node->pad) p = 0;
  node->tuples[0] = Tuple{BucketNode::kEmptySlotKey, 0};
  node->tuples[1] = Tuple{BucketNode::kEmptySlotKey, 0};
  node->next = nullptr;
}

BucketNode* ConcurrentChainedTable::AllocNode() {
  if (free_count_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(free_mu_);
    if (!free_.empty()) {
      BucketNode* node = free_.back();
      free_.pop_back();
      free_count_.fetch_sub(1, std::memory_order_relaxed);
      recycled_nodes_.fetch_add(1, std::memory_order_relaxed);
      InitNode(node);
      return node;
    }
  }
  for (;;) {
    Slab* slab = current_slab_.load(std::memory_order_acquire);
    const uint64_t i = slab->used.fetch_add(1, std::memory_order_relaxed);
    if (i < slab->nodes.size()) {
      BucketNode* node = &slab->nodes[i];
      allocated_nodes_.fetch_add(1, std::memory_order_relaxed);
      InitNode(node);
      return node;
    }
    std::lock_guard<std::mutex> lock(alloc_mu_);
    if (current_slab_.load(std::memory_order_acquire) == slab) {
      slabs_.push_back(std::make_unique<Slab>(slab->nodes.size() * 2));
      current_slab_.store(slabs_.back().get(), std::memory_order_release);
    }
  }
}

void ConcurrentChainedTable::RecycleNode(void* obj, void* ctx) {
  auto* table = static_cast<ConcurrentChainedTable*>(ctx);
  auto* node = static_cast<BucketNode*>(obj);
  std::lock_guard<std::mutex> lock(table->free_mu_);
  table->free_.push_back(node);
  table->free_count_.fetch_add(1, std::memory_order_relaxed);
}

bool ConcurrentChainedTable::UpsertLocked(BucketNode* head, int64_t key,
                                          int64_t payload,
                                          EpochGuard& guard) {
  // A stored sentinel key would be indistinguishable from an unclaimed
  // slot for both the latch-free reader and the vectorized gathers; the
  // concurrent table rejects it outright instead of carrying a
  // has_sentinel_key escape hatch through every reader.
  AMAC_CHECK_MSG(key != BucketNode::kEmptySlotKey,
                 "kEmptySlotKey is reserved in ConcurrentChainedTable");
  (void)guard;
  BucketNode* claim_node = nullptr;
  BucketNode* tail = head;
  for (BucketNode* node = head; node != nullptr;
       node = LoadNextRelaxed(node)) {
    for (uint32_t i = 0; i < node->count; ++i) {
      if (LoadKeyRelaxed(node->tuples[i]) == key) {
        StorePayloadRelaxed(node->tuples[i], payload);
        return false;
      }
    }
    if (claim_node == nullptr && node->count < BucketNode::kTuplesPerNode) {
      claim_node = node;
    }
    tail = node;
  }
  if (claim_node != nullptr) {
    // Claim-once: this slot index has never held a key in this node
    // incarnation.  Payload first, then the key's release store, then the
    // (reader-invisible) claim count.
    Tuple& slot = claim_node->tuples[claim_node->count];
    StorePayloadRelaxed(slot, payload);
    StoreKeyRelease(slot, key);
    StoreCountRelaxed(claim_node, claim_node->count + 1);
  } else {
    BucketNode* node = AllocNode();
    node->tuples[0] = Tuple{key, payload};
    node->count = 1;
    StoreNextRelease(tail, node);  // publication
  }
  live_keys_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ConcurrentChainedTable::EraseLocked(BucketNode* head, int64_t key,
                                         EpochGuard& guard) {
  // The sentinel is never stored (UpsertLocked rejects it) and would
  // false-match tombstoned slots below.
  if (AMAC_UNLIKELY(key == BucketNode::kEmptySlotKey)) return false;
  for (BucketNode* node = head; node != nullptr;
       node = LoadNextRelaxed(node)) {
    for (uint32_t i = 0; i < node->count; ++i) {
      if (LoadKeyRelaxed(node->tuples[i]) != key) continue;
      // Tombstone: the slot key goes back to the sentinel and the slot is
      // dead for this incarnation (claim-once).  Readers mid-pair see
      // either (key, payload) — linearized before the erase — or the
      // sentinel.
      StoreKeyRelease(node->tuples[i], BucketNode::kEmptySlotKey);
      live_keys_.fetch_sub(1, std::memory_order_relaxed);
      // head->pad[0] counts this bucket's tombstones; latch-protected,
      // never read by the latch-free paths.
      if (compact_tombstones_ != 0 &&
          ++head->pad[0] >= compact_tombstones_) {
        head->pad[0] = 0;
        CompactLocked(head, guard);
      }
      return true;
    }
  }
  return false;
}

void ConcurrentChainedTable::CompactLocked(BucketNode* head,
                                           EpochGuard& guard) {
  compactions_.fetch_add(1, std::memory_order_relaxed);
  BucketNode* prev = head;
  BucketNode* node = LoadNextRelaxed(head);
  while (node != nullptr) {
    BucketNode* next = LoadNextRelaxed(node);
    const bool dead =
        node->count == BucketNode::kTuplesPerNode &&
        LoadKeyRelaxed(node->tuples[0]) == BucketNode::kEmptySlotKey &&
        LoadKeyRelaxed(node->tuples[1]) == BucketNode::kEmptySlotKey;
    if (dead) {
      // Unlink but leave the node's own next intact: a reader already on
      // the node keeps a valid path to the rest of the chain until the
      // grace period ends and the node recycles through the free list.
      StoreNextRelease(prev, next);
      retired_nodes_.fetch_add(1, std::memory_order_relaxed);
      guard.Retire(node, &ConcurrentChainedTable::RecycleNode, this);
    } else {
      prev = node;
    }
    node = next;
  }
}

bool ConcurrentChainedTable::Upsert(int64_t key, int64_t payload,
                                    EpochGuard& guard) {
  BucketNode* head = BucketForKey(key);
  LatchGuard latch(head->latch);
  return UpsertLocked(head, key, payload, guard);
}

bool ConcurrentChainedTable::Erase(int64_t key, EpochGuard& guard) {
  BucketNode* head = BucketForKey(key);
  LatchGuard latch(head->latch);
  return EraseLocked(head, key, guard);
}

bool ConcurrentChainedTable::Find(int64_t key, int64_t* payload) const {
  if (AMAC_UNLIKELY(key == BucketNode::kEmptySlotKey)) return false;
  for (const BucketNode* node = BucketForKey(key); node != nullptr;
       node = LoadNextAcquire(node)) {
    // Both slots unconditionally (the slot-sentinel invariant): an
    // unclaimed or tombstoned slot holds the sentinel and cannot match.
    for (uint32_t i = 0; i < BucketNode::kTuplesPerNode; ++i) {
      if (LoadKeyAcquire(node->tuples[i]) == key) {
        *payload = LoadPayloadRelaxed(node->tuples[i]);
        return true;
      }
    }
  }
  return false;
}

ConcurrentChainedTable::Audit ConcurrentChainedTable::AuditQuiesced() const {
  Audit audit;
  std::unordered_set<int64_t> seen;
  bool ok = true;
  for (uint64_t b = 0; b < buckets_.size(); ++b) {
    uint64_t chain = 0;
    for (const BucketNode* node = &buckets_[b]; node != nullptr;
         node = LoadNextRelaxed(node)) {
      ++chain;
      if (node != &buckets_[b]) ++audit.chain_nodes;
      for (uint32_t i = 0; i < BucketNode::kTuplesPerNode; ++i) {
        const int64_t key = LoadKeyRelaxed(node->tuples[i]);
        if (i >= node->count) {
          // Slot-sentinel invariant: unclaimed slots hold the sentinel.
          if (key != BucketNode::kEmptySlotKey) ok = false;
          continue;
        }
        if (key == BucketNode::kEmptySlotKey) {
          ++audit.dead_slots;
          continue;
        }
        ++audit.live_tuples;
        if (BucketIndex(key) != b) ok = false;      // misplaced key
        if (!seen.insert(key).second) ok = false;   // duplicate key
      }
    }
    audit.max_chain = std::max(audit.max_chain, chain);
  }
  if (audit.live_tuples != live_keys()) ok = false;
  audit.ok = ok;
  return audit;
}

void ConcurrentChainedTable::CollectLive(std::vector<Tuple>* out) const {
  for (const BucketNode& head : buckets_) {
    for (const BucketNode* node = &head; node != nullptr;
         node = LoadNextRelaxed(node)) {
      for (uint32_t i = 0; i < node->count; ++i) {
        const int64_t key = LoadKeyRelaxed(node->tuples[i]);
        if (key == BucketNode::kEmptySlotKey) continue;
        out->push_back(Tuple{key, LoadPayloadRelaxed(node->tuples[i])});
      }
    }
  }
}

}  // namespace amac
