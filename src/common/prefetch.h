// Software prefetch wrappers.
//
// The paper issues PREFETCHNTA on x86 (via gcc builtins) and "strong"
// prefetches on SPARC.  We expose the locality hint as a template parameter
// so benchmarks can ablate NTA vs. T0 behaviour.
//
// Every prefetch in the library goes through these wrappers, so a schedule
// can switch them off for the current thread (NoPrefetchScope).  The
// sequential schedule does: the paper's Baseline is the plain loop with no
// software prefetch, and the same ops serve as that loop unchanged.
#pragma once

#include "common/macros.h"

namespace amac {

/// Prefetch locality hints, mirroring __builtin_prefetch's third argument.
enum class PrefetchLocality : int {
  kNTA = 0,  ///< non-temporal (paper's choice: PREFETCHNTA)
  kT2 = 1,
  kT1 = 2,
  kT0 = 3,
};

namespace detail {
/// True while a NoPrefetchScope is live on this thread.  constinit keeps
/// the access a plain TLS load, with no lazy-initialization call.
inline thread_local constinit bool prefetch_off = false;
}  // namespace detail

/// Whether the wrappers below issue prefetches on this thread.
inline bool PrefetchesEnabled() { return !detail::prefetch_off; }

/// Turns every wrapper below into a no-op on this thread until the scope
/// ends, then restores the previous setting.
class NoPrefetchScope {
 public:
  NoPrefetchScope() : saved_(detail::prefetch_off) {
    detail::prefetch_off = true;
  }
  ~NoPrefetchScope() { detail::prefetch_off = saved_; }
  NoPrefetchScope(const NoPrefetchScope&) = delete;
  NoPrefetchScope& operator=(const NoPrefetchScope&) = delete;

 private:
  bool saved_;
};

/// Issue a read prefetch for the cache line containing `p`.
template <PrefetchLocality Locality = PrefetchLocality::kNTA>
inline void Prefetch(const void* p) {
  if (AMAC_UNLIKELY(detail::prefetch_off)) return;
  __builtin_prefetch(p, /*rw=*/0, static_cast<int>(Locality));
}

/// Issue a write-intent prefetch (used before latched updates).
template <PrefetchLocality Locality = PrefetchLocality::kNTA>
inline void PrefetchWrite(const void* p) {
  if (AMAC_UNLIKELY(detail::prefetch_off)) return;
  __builtin_prefetch(p, /*rw=*/1, static_cast<int>(Locality));
}

/// Prefetch `bytes` worth of lines starting at `p` (for nodes that span
/// multiple cache lines, e.g. skip-list towers).
inline void PrefetchRange(const void* p, std::size_t bytes) {
  if (AMAC_UNLIKELY(detail::prefetch_off)) return;
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += kCacheLineSize) {
    __builtin_prefetch(c + off, 0, 0);
  }
}

}  // namespace amac
