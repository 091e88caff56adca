#include "common/thread_pool.h"

#include <chrono>

namespace amac {

void ParallelFor(uint32_t num_threads,
                 const std::function<void(uint32_t)>& fn) {
  AMAC_CHECK(num_threads > 0);
  if (num_threads == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (uint32_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& th : threads) th.join();
}

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(std::max(1u, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto ready = [&] { return stop_ || !tasks_.empty(); };
      // Each time the worker is about to park with nothing to do, run the
      // idle hook (outside the lock — it may take other locks).  While it
      // reports a backlog the worker polls it on a short timeout; once it
      // reports none, the condvar wait blocks until the next notify.
      while (!ready()) {
        bool backlog = false;
        if (idle_) {
          std::function<bool()> idle = idle_;
          lock.unlock();
          backlog = idle();
          lock.lock();
          if (ready()) break;
        }
        if (backlog) {
          work_cv_.wait_for(lock, std::chrono::milliseconds(1));
        } else {
          work_cv_.wait(lock);
        }
      }
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

bool ThreadPool::TryRunTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::SetIdleHook(std::function<bool()> hook) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_ = std::move(hook);
  }
  // Wake parked workers so the new hook runs at least once promptly.
  work_cv_.notify_all();
}

uint64_t ThreadPool::queued_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_.size();
}

Range PartitionRange(uint64_t total, uint32_t parts, uint32_t index) {
  AMAC_CHECK(parts > 0 && index < parts);
  const uint64_t base = total / parts;
  const uint64_t extra = total % parts;
  const uint64_t begin =
      static_cast<uint64_t>(index) * base + (index < extra ? index : extra);
  const uint64_t len = base + (index < extra ? 1 : 0);
  return Range{begin, begin + len};
}

uint64_t ResolveMorselSize(uint64_t num_inputs, uint32_t num_threads,
                           uint64_t requested, uint32_t inflight) {
  if (requested > 0) return requested;
  if (num_inputs == 0) return 1;
  // Target ~8 morsels per thread so claim-order imbalance evens out, but
  // keep every morsel large enough that the schedule's in-flight window
  // (and its fill/drain ramp) is amortized, and cap it so no single claim
  // dominates the tail.
  constexpr uint64_t kMaxMorsel = uint64_t{1} << 16;
  const uint64_t target =
      num_inputs / (static_cast<uint64_t>(std::max(1u, num_threads)) * 8);
  // The floor itself must respect the cap, or clamp(lo > hi) is UB for
  // absurd in-flight widths.
  const uint64_t floor = std::min(
      kMaxMorsel, std::max<uint64_t>(1024, 8ull * std::max(1u, inflight)));
  return std::clamp(target, floor, kMaxMorsel);
}

void ForRanges(ThreadPool* team, uint64_t count,
               const std::function<void(uint32_t, Range)>& fn) {
  if (team == nullptr || team->size() <= 1) {
    fn(0, Range{0, count});
    return;
  }
  const uint32_t parts = team->size();
  std::mutex mu;
  std::condition_variable done_cv;
  uint32_t pending = parts - 1;  // guarded by mu
  for (uint32_t part = 1; part < parts; ++part) {
    team->Submit([&, part] {
      fn(part, PartitionRange(count, parts, part));
      // Notify under the lock: the caller destroys mu and done_cv as soon
      // as it sees the last part finish.
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done_cv.notify_one();
    });
  }
  fn(0, PartitionRange(count, parts, 0));
  // Help drain the queue (these parts, or tasks queued ahead of them)
  // rather than idle; block only while it is empty.  The wait is timed
  // because a task queued after a failed TryRunTask does not notify
  // done_cv, while the last part's completion does, at once.
  constexpr std::chrono::microseconds kHelpPoll{200};
  std::unique_lock<std::mutex> lock(mu);
  while (pending != 0) {
    lock.unlock();
    const bool ran = team->TryRunTask();
    lock.lock();
    if (!ran) done_cv.wait_for(lock, kHelpPoll, [&] { return pending == 0; });
  }
}

}  // namespace amac
