// Cache-line / page aligned memory management.
//
// Data-structure nodes are allocated out of large aligned slabs so that (a)
// every node sits on a 64-byte boundary as in the paper's methodology and
// (b) allocation cost never pollutes measured loops.  On Linux we advise
// transparent huge pages, standing in for the paper's explicit 2 MB pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/macros.h"

namespace amac {

/// Allocate `bytes` aligned to `alignment`; abort on failure (workload
/// buffers are sized up front — an allocation failure is not recoverable).
void* AlignedAlloc(std::size_t bytes, std::size_t alignment = kCacheLineSize);

/// Free memory obtained from AlignedAlloc.
void AlignedFree(void* p);

/// Advise the kernel to back [p, p+bytes) with huge pages (best effort).
void AdviseHugePages(void* p, std::size_t bytes);

/// Owning, movable buffer of `T` aligned to a cache line (or stronger).
/// Elements are default-constructed only when `T` is non-trivial.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count,
                         std::size_t alignment = kCacheLineSize) {
    Allocate(count, alignment);
    if constexpr (!std::is_trivially_default_constructible_v<T>) {
      for (std::size_t i = 0; i < count; ++i) new (data_ + i) T();
    }
  }

  /// Room for `count` elements, none of them constructed: the owner
  /// placement-news each element before its first use, so pages it never
  /// writes are never backed by memory.  Only for trivially destructible
  /// T, whose Reset() then has nothing to destroy.
  static AlignedBuffer Uninitialized(std::size_t count,
                                     std::size_t alignment = kCacheLineSize) {
    static_assert(std::is_trivially_destructible_v<T>);
    AlignedBuffer buffer;
    buffer.Allocate(count, alignment);
    return buffer;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept { *this = std::move(other); }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { Reset(); }

  void Reset() {
    if (data_ == nullptr) return;
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    }
    AlignedFree(data_);
    data_ = nullptr;
    size_ = 0;
  }

  /// Zero-fill the underlying bytes (valid only for trivially copyable T).
  void ZeroFill() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_ != nullptr) std::memset(data_, 0, size_ * sizeof(T));
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    AMAC_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    AMAC_DCHECK(i < size_);
    return data_[i];
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Allocate(std::size_t count, std::size_t alignment) {
    size_ = count;
    if (count == 0) return;
    data_ = static_cast<T*>(AlignedAlloc(count * sizeof(T), alignment));
    AdviseHugePages(data_, count * sizeof(T));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace amac
