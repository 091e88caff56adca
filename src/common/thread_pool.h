// Thread team primitives: per-call fork-join (ParallelFor), a persistent
// team draining a FIFO task queue (ThreadPool), and the morsel cursor.
//
// Benchmarks need "run this closure over T contiguous ranges and join"
// (ForRanges); the serving layer needs "run these queued tasks on
// whichever worker is free" so morsels from different queries can
// interleave on one shared team.  Both go through ThreadPool's one queue.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/aligned.h"
#include "common/macros.h"

namespace amac {

/// Run `fn(thread_id)` on `num_threads` std::threads and join them all.
void ParallelFor(uint32_t num_threads,
                 const std::function<void(uint32_t)>& fn);

/// Persistent thread team: `size() - 1` workers are spawned once and drain
/// a FIFO *task queue* (Submit/TryRunTask), so the per-call std::thread
/// spawn/join cost of ParallelFor (hundreds of microseconds for a wide
/// team) is paid once per pool instead of once per phase.  The core
/// Executor owns one of these across Run() calls.
///
/// The serving layer (server/query_scheduler.h) enqueues one task per
/// in-flight morsel so lookups from different queries interleave on one
/// shared team; ForRanges enqueues one task per range.  Any thread — a
/// worker, a client blocked in Wait(), a ForRanges caller — can help drain
/// the queue, which is what keeps a pool of size 1 (no workers) and
/// waits issued from inside a task making progress.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t size() const { return num_threads_; }

  /// Enqueue a task for any free worker.  Tasks run in FIFO order (the
  /// interleaving discipline: a resubmitted morsel task goes to the back,
  /// so concurrent queries round-robin).  With size() == 1 there are no
  /// workers; tasks only run when some thread calls TryRunTask().
  void Submit(std::function<void()> task);

  /// Pop and run one queued task on the calling thread; false when the
  /// queue was empty.  Lets client threads blocked on a result help drain
  /// the queue instead of idling (work-conserving Wait()).
  bool TryRunTask();

  /// Tasks currently queued (racy snapshot; observability only).
  uint64_t queued_tasks() const;

  /// Install a closure every worker runs each time it is about to park
  /// with nothing to do.  The closure returns whether a backlog remains;
  /// while it does, the worker re-runs it after a short timed wait instead
  /// of blocking until the next task (a void closure reports none).  The
  /// epoch subsystem hooks EpochManager::AdvanceAndReclaim here so
  /// quiescence advances and pending retirements drain from otherwise-idle
  /// workers.  The closure must be cheap, must not touch the pool, and must
  /// tolerate concurrent invocation from several workers.
  template <typename Fn>
  void SetIdleTask(Fn task) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      SetIdleHook([task = std::move(task)]() mutable {
        task();
        return false;
      });
    } else {
      SetIdleHook(std::move(task));
    }
  }

 private:
  void SetIdleHook(std::function<bool()> hook);
  void WorkerLoop();

  const uint32_t num_threads_;
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> tasks_;  ///< guarded by mu_
  std::function<bool()> idle_;               ///< guarded by mu_
  bool stop_ = false;                        ///< guarded by mu_
};

/// Split [0, total) into `parts` contiguous ranges; returns [begin, end) of
/// range `index`. Remainder elements go to the leading ranges so sizes
/// differ by at most one.
struct Range {
  uint64_t begin;
  uint64_t end;
  uint64_t size() const { return end - begin; }
};
Range PartitionRange(uint64_t total, uint32_t parts, uint32_t index);

/// Run `fn(part, range)` for each of `team->size()` contiguous ranges
/// covering [0, count), on the team, and return once every part finished;
/// without a team (or with one thread), run `fn(0, {0, count})` inline.
/// `part` indexes the range, so per-part results fit an array of
/// team->size().  Parts 1.. are queued as tasks and part 0 runs on the
/// caller, which then helps drain the queue until its parts are done.
void ForRanges(ThreadPool* team, uint64_t count,
               const std::function<void(uint32_t, Range)>& fn);

/// A buffer of `count` default-constructed T whose elements are
/// constructed, so first touched, by ForRanges on `team`.
template <typename T>
AlignedBuffer<T> MakeBufferOnTeam(ThreadPool* team, uint64_t count) {
  AlignedBuffer<T> buffer = AlignedBuffer<T>::Uninitialized(count);
  T* const data = buffer.data();
  ForRanges(team, count, [data](uint32_t, Range r) {
    for (uint64_t i = r.begin; i < r.end; ++i) new (data + i) T();
  });
  return buffer;
}

/// Morsel sizing: `requested` wins when nonzero; otherwise aim for several
/// morsels per thread (load balance) without dropping below a floor that
/// keeps the in-flight window busy inside each morsel.
uint64_t ResolveMorselSize(uint64_t num_inputs, uint32_t num_threads,
                           uint64_t requested, uint32_t inflight);

/// Atomic work-stealing cursor over [0, total): threads claim fixed-size
/// morsels until the input is exhausted.  Unlike PartitionRange's static
/// split, stragglers (skewed chains, latch contention) cannot leave other
/// threads idle — the morsel-driven parallelism the QueryScheduler uses.
class MorselCursor {
 public:
  MorselCursor(uint64_t total, uint64_t morsel_size)
      : total_(total), morsel_(morsel_size) {
    AMAC_CHECK(morsel_size >= 1);
  }

  /// Claim the next unclaimed morsel; false once the input is exhausted.
  bool Next(Range* out) {
    const uint64_t begin =
        next_.fetch_add(morsel_, std::memory_order_relaxed);
    if (begin >= total_) return false;
    out->begin = begin;
    out->end = std::min(total_, begin + morsel_);
    return true;
  }

  uint64_t total() const { return total_; }
  uint64_t morsel_size() const { return morsel_; }

 private:
  std::atomic<uint64_t> next_{0};
  const uint64_t total_;
  const uint64_t morsel_;
};

}  // namespace amac
