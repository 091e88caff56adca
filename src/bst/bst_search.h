// BST search helpers (paper Table 1 column 4) and the no-prefetch Baseline.
//
// A tree descent is a pure dependent-pointer chain: the child cannot be
// fetched before the parent's comparison resolves, so baseline MLP is ~1.
// The staged schedules run the generic BstSearchOp (core/ops.h), one
// VisitBstNode per stage, and overlap `inflight` descents; GP/SPP provision
// `stages` levels and bail out on deeper descents (paper §5.3 discusses
// exactly this SPP weakness on tall trees).  BstSearchBaseline stays as the
// sequential oracle and as the hand loop that ablation_engines and
// examples/index_join_bst compare the generic schedules against.
//
// Sink contract: Emit(rid, payload) on a key match; missing keys emit
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bst/bst.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "common/simd.h"
#include "relation/relation.h"

namespace amac {

/// The child of `node` on `key`'s side, chosen by a conditional move.  The
/// direction is a coin flip per level, and a branch on it that mispredicts
/// half the time measured about 1.45x slower in a DRAM-bound descent.  The
/// compiler emits either form for the plain ternary, depending on where the
/// descent is inlined, so on x86-64 the move is written out.
inline const BstNode* BstChild(const BstNode* node, int64_t key) {
#if defined(__x86_64__)
  const BstNode* child = node->right;
  asm("cmpq %[node_key], %[key]\n\t"
      "cmovl %[left], %[child]"
      : [child] "+r"(child)
      : [key] "r"(key), [node_key] "r"(node->key), [left] "r"(node->left)
      : "cc");
  return child;
#else
  return key < node->key ? node->left : node->right;
#endif
}

/// One level of descent. Returns true when the lookup finished (match or
/// null child); otherwise *next receives the child to visit.
template <typename Sink>
inline bool VisitBstNode(const BstNode* node, int64_t key, uint64_t rid,
                         Sink& sink, const BstNode** next) {
  if (node->key == key) {
    sink.Emit(rid, node->payload);
    return true;
  }
  const BstNode* child = BstChild(node, key);
  if (child == nullptr) return true;
  *next = child;
  return false;
}

// The gather offsets of the vectorized descent hard-code the BstNode layout.
static_assert(offsetof(BstNode, key) == 0);
static_assert(offsetof(BstNode, payload) == 8);
static_assert(offsetof(BstNode, left) == 16);
static_assert(offsetof(BstNode, right) == 24);

/// Per-step result of the AVX2 descent kernel: lanes that matched (payload
/// captured) and lanes that keep descending (ptrs already advanced).
struct VecBstStepResult {
  uint32_t next_active = 0;
  uint32_t hit = 0;
  int64_t payload[kSimdLanes] = {};
};

#if AMAC_SIMD_X86
namespace simd_detail {

AMAC_TARGET_AVX2 inline VecBstStepResult VecBstStepAvx2(
    const BstNode** ptrs, const int64_t* keys, uint32_t active) {
  VecBstStepResult r;
  for (uint32_t half = 0; half < 2; ++half) {
    const uint32_t nibble = (active >> (4 * half)) & 0xf;
    if (nibble == 0) continue;
    const __m256i lanes = LaneMask4(nibble);
    const __m256i ptrv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ptrs + 4 * half));
    const __m256i keyv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + 4 * half));
    const __m256i nk = MaskGather64(ptrv, lanes);
    const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi64(nk, keyv), lanes);
    const __m256i pay =
        MaskGather64(_mm256_add_epi64(ptrv, _mm256_set1_epi64x(8)), eq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r.payload + 4 * half),
                        pay);
    // Child selection: left (offset 16) when key < node->key, else right
    // (offset 24); lt lanes are all-ones so `24 + (lt & -8)` yields 16.
    const __m256i lt = _mm256_and_si256(_mm256_cmpgt_epi64(nk, keyv), lanes);
    const __m256i off = _mm256_add_epi64(
        _mm256_set1_epi64x(24), _mm256_and_si256(lt, _mm256_set1_epi64x(-8)));
    const __m256i walk = _mm256_andnot_si256(eq, lanes);
    const __m256i child = MaskGather64(_mm256_add_epi64(ptrv, off), walk);
    const __m256i cont = _mm256_andnot_si256(
        _mm256_cmpeq_epi64(child, _mm256_setzero_si256()), walk);
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(ptrs + 4 * half),
                           cont, child);
    r.hit |= static_cast<uint32_t>(
                 _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
             << (4 * half);
    r.next_active |= static_cast<uint32_t>(
                         _mm256_movemask_pd(_mm256_castsi256_pd(cont)))
                     << (4 * half);
  }
  return r;
}

}  // namespace simd_detail
#endif  // AMAC_SIMD_X86

/// Advance every active lane's descent by one level (the VisitBstNode stage
/// boundary) with gathered node keys/children.  Hits emit (lane, payload);
/// continuing lanes have ptrs advanced and prefetched.  Returns the new
/// active mask.  Lane results are bitwise-identical to VisitBstNode.
template <typename EmitFn>
inline uint32_t VecBstStep(const BstNode** ptrs, const int64_t* keys,
                           uint32_t active, EmitFn&& emit) {
#if AMAC_SIMD_X86
  if (CurrentSimdLevel() >= SimdLevel::kAvx2) {
    const VecBstStepResult r =
        simd_detail::VecBstStepAvx2(ptrs, keys, active);
    uint32_t hits = r.hit;
    while (hits != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(hits));
      hits &= hits - 1;
      emit(lane, r.payload[lane]);
    }
    uint32_t walking = r.next_active;
    while (walking != 0) {
      const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(walking));
      walking &= walking - 1;
      Prefetch(ptrs[lane]);
    }
    return r.next_active;
  }
#endif
  uint32_t next_active = 0;
  uint32_t pending = active;
  while (pending != 0) {
    const uint32_t lane = static_cast<uint32_t>(__builtin_ctz(pending));
    pending &= pending - 1;
    const BstNode* node = ptrs[lane];
    if (node->key == keys[lane]) {
      emit(lane, node->payload);
      continue;
    }
    const BstNode* child =
        keys[lane] < node->key ? node->left : node->right;
    if (child == nullptr) continue;
    ptrs[lane] = child;
    Prefetch(child);
    next_active |= 1u << lane;
  }
  return next_active;
}

template <typename Sink>
void BstSearchBaseline(const BinarySearchTree& tree, const Relation& probe,
                       uint64_t begin, uint64_t end, Sink& sink) {
  for (uint64_t i = begin; i < end; ++i) {
    const int64_t key = probe[i].key;
    const BstNode* node = tree.root();
    if (node == nullptr) continue;
    const BstNode* next = nullptr;
    while (!VisitBstNode(node, key, i, sink, &next)) node = next;
  }
}

}  // namespace amac
