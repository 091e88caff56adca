#include "server/query_scheduler.h"

#include <limits>

namespace amac {

namespace {

constexpr std::chrono::microseconds kWaitPoll{200};

}  // namespace

QueryScheduler::QueryScheduler(const QuerySchedulerOptions& options)
    : options_(options),
      pool_(std::max(1u, options.num_workers)) {
  options_.num_workers = pool_.size();
}

QueryScheduler::~QueryScheduler() { Drain(); }

void QueryScheduler::Enqueue(std::shared_ptr<detail::QueryState> state) {
  bool reject = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    ++tenants_[state->tenant].submitted;
    const uint32_t cap = options_.max_inflight_queries;
    if (cap == 0 || inflight_ < cap) {
      ++inflight_;
      LaunchLocked(state);
      return;
    }
    if (options_.max_pending > 0 &&
        pending_.size() >= options_.max_pending) {
      reject = true;  // finalize outside mu_ (FinalizeUnlaunched retakes it)
    } else {
      pending_.push_back(std::move(state));
    }
  }
  if (reject) FinalizeUnlaunched(state, QueryOutcome::kRejected);
}

void QueryScheduler::LaunchLocked(
    const std::shared_ptr<detail::QueryState>& state) {
  // At most one pump task per morsel (each runs exactly one morsel before
  // requeueing), at most one per slot; an empty query still gets one task
  // so completion flows through the single finalize path.
  const uint32_t tasks = static_cast<uint32_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(state->slots, state->num_morsels)));
  state->free_slots.clear();
  state->free_slots.reserve(state->slots);
  for (uint32_t s = 0; s < state->slots; ++s) state->free_slots.push_back(s);
  state->outstanding.store(tasks, std::memory_order_relaxed);
  for (uint32_t t = 0; t < tasks; ++t) {
    pool_.Submit([this, state] { Pump(state); });
  }
}

void QueryScheduler::Pump(const std::shared_ptr<detail::QueryState>& state) {
  if (!state->started.load()) {
    // First morsel of this query: close the queue-wait window.  The stamp
    // is taken before the exchange, so it precedes every morsel of the
    // query, including those of pump tasks that lose the race.
    const double queue_seconds = state->submit_timer.ElapsedSeconds();
    const uint64_t queue_cycles = state->submit_cycles.Elapsed();
    if (!state->started.exchange(true)) {
      state->queue_seconds = queue_seconds;
      state->queue_cycles = queue_cycles;
    }
  }
  uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(state->slot_mu);
    AMAC_CHECK(!state->free_slots.empty());
    slot = state->free_slots.back();
    state->free_slots.pop_back();
  }
  const bool ran = state->run_one_morsel(slot);
  {
    std::lock_guard<std::mutex> lock(state->slot_mu);
    state->free_slots.push_back(slot);
  }
  if (ran) {
    // Re-enqueue at the BACK of the shared queue: other queries' pending
    // morsels run before this query's next one (round-robin interleaving).
    pool_.Submit([this, state] { Pump(state); });
    return;
  }
  // Cursor exhausted: this pump chain dies.  The last chain finalizes.
  if (state->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Finish(state);
  }
}

void QueryScheduler::Finish(
    const std::shared_ptr<detail::QueryState>& state) {
  QueryStats result;
  result.run.inputs = state->num_inputs;
  result.run.threads = state->slots;
  state->collect(&result.run);
  // `started` is always true here (even empty queries run one pump task).
  result.latency_seconds = state->submit_timer.ElapsedSeconds();
  result.queue_seconds = state->queue_seconds;
  result.run.seconds = result.latency_seconds - state->queue_seconds;
  result.run.cycles = state->submit_cycles.Elapsed() - state->queue_cycles;
  result.run.dispatch_seconds = result.latency_seconds;
  result.outcome = QueryOutcome::kServed;
  result.deadline_seconds = state->deadline_seconds;
  result.deadline_met = state->deadline_seconds == 0 ||
                        result.latency_seconds <= state->deadline_seconds;

  // Drop the typed execution state NOW, not when the last ticket copy
  // dies: the per-slot ops behind these closures own real resources
  // (sinks, and for the concurrent write path an epoch participant slot
  // each), and a client holding tickets of many completed queries must
  // not pin them — a few hundred live EpochGuards would exhaust the
  // EpochManager's participant table and wedge every later query.
  state->run_one_morsel = nullptr;
  state->collect = nullptr;

  std::vector<std::shared_ptr<detail::QueryState>> shed;
  {
    // Publish the per-query result and the scheduler-level accounting
    // atomically (a waiter that saw `done` must also see the updated
    // serving stats).  Lock order is unique to this site; nothing nests
    // the other way.
    std::scoped_lock lock(mu_, state->mu);
    AMAC_CHECK(inflight_ > 0);
    --inflight_;
    ++completed_;
    TenantBook& book = tenants_[state->tenant];
    ++book.completed;
    if (result.deadline_met) {
      ++goodput_queries_;
      ++book.goodput;
    } else {
      ++deadline_missed_;
    }
    total_morsels_ += result.run.morsels;
    total_engine_.Merge(result.run.engine);
    total_queue_seconds_ += result.queue_seconds;
    total_execute_seconds_ += result.run.seconds;
    max_latency_seconds_ =
        std::max(max_latency_seconds_, result.latency_seconds);
    if (result.run.adaptive.active) {
      ++adaptive_queries_;
      if (result.run.adaptive.cache_hit) ++adaptive_cache_hits_;
      adaptive_tuning_switches_ += result.run.adaptive.tuning_switches;
      ++adaptive_chosen_counts_[StaticExecPolicyIndex(
          result.run.adaptive.chosen_policy)];
    }
    latencies_.Add(result.latency_seconds);
    AdmitPendingLocked(&shed);
    state->result = result;
    state->done = true;
  }
  state->cv.notify_all();
  drain_cv_.notify_all();
  for (const auto& dropped : shed) {
    FinalizeUnlaunched(dropped, QueryOutcome::kShed);
  }
}

void QueryScheduler::AdmitPendingLocked(
    std::vector<std::shared_ptr<detail::QueryState>>* shed) {
  const uint32_t cap = options_.max_inflight_queries;
  while ((cap == 0 || inflight_ < cap) && !pending_.empty()) {
    std::shared_ptr<detail::QueryState> next = PopPendingLocked();
    if (options_.shed_expired && next->deadline_seconds > 0 &&
        next->submit_timer.ElapsedSeconds() > next->deadline_seconds) {
      // Already past its SLO: launching it would burn workers on a reply
      // nobody can use.  Shed it and keep admitting.
      shed->push_back(std::move(next));
      continue;
    }
    ++inflight_;
    LaunchLocked(next);
  }
}

void QueryScheduler::FinalizeUnlaunched(
    const std::shared_ptr<detail::QueryState>& state, QueryOutcome outcome) {
  QueryStats result;  // run stays all-zero: nothing executed
  result.outcome = outcome;
  result.deadline_seconds = state->deadline_seconds;
  result.deadline_met = false;
  result.latency_seconds = state->submit_timer.ElapsedSeconds();
  // Same early release as Finish: nothing will ever execute, so the typed
  // state (op factory captures and all) has no reason to outlive this.
  state->run_one_morsel = nullptr;
  state->collect = nullptr;
  {
    std::scoped_lock lock(mu_, state->mu);
    TenantBook& book = tenants_[state->tenant];
    if (outcome == QueryOutcome::kRejected) {
      ++rejected_;
      ++book.rejected;
    } else {
      ++shed_;
      ++book.shed;
    }
    state->result = result;
    state->done = true;
  }
  state->cv.notify_all();
  drain_cv_.notify_all();
}

std::shared_ptr<detail::QueryState> QueryScheduler::PopPendingLocked() {
  AMAC_CHECK(!pending_.empty());
  // The deque is in submission order, so kFifo pops the front.
  auto it = pending_.begin();
  if (options_.order == AdmissionOrder::kDeadline) {
    // EDF over remaining slack; deadline-free queries sort last (FIFO
    // among themselves via the strict < and submission-ordered deque).
    const auto remaining = [](const detail::QueryState& s) {
      return s.deadline_seconds > 0
                 ? s.deadline_seconds - s.submit_timer.ElapsedSeconds()
                 : std::numeric_limits<double>::infinity();
    };
    double best = remaining(**it);
    for (auto cand = std::next(pending_.begin()); cand != pending_.end();
         ++cand) {
      const double r = remaining(**cand);
      if (r < best) {
        best = r;
        it = cand;
      }
    }
  }
  std::shared_ptr<detail::QueryState> state = std::move(*it);
  pending_.erase(it);
  return state;
}

QueryStats QueryScheduler::Wait(const QueryTicket& ticket) {
  AMAC_CHECK(ticket.valid());
  detail::QueryState& state = *ticket.state_;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.done) return state.result;
    }
    // Work-conserving wait: drain the shared queue instead of idling.
    if (pool_.TryRunTask()) continue;
    std::unique_lock<std::mutex> lock(state.mu);
    // Timed wait covers the race where a task was enqueued between the
    // failed TryRunTask and this wait; completion notifies immediately.
    state.cv.wait_for(lock, kWaitPoll, [&] { return state.done; });
    if (state.done) return state.result;
  }
}

bool QueryScheduler::Finished(const QueryTicket& ticket) const {
  AMAC_CHECK(ticket.valid());
  std::lock_guard<std::mutex> lock(ticket.state_->mu);
  return ticket.state_->done;
}

void QueryScheduler::Drain() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (AllDoneLocked()) return;
    }
    if (pool_.TryRunTask()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait_for(lock, kWaitPoll, [&] { return AllDoneLocked(); });
    if (AllDoneLocked()) return;
  }
}

ServingStats QueryScheduler::serving_stats() const {
  ServingStats stats;
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.submitted = submitted_;
    stats.completed = completed_;
    stats.rejected = rejected_;
    stats.shed = shed_;
    stats.goodput_queries = goodput_queries_;
    stats.deadline_missed = deadline_missed_;
    stats.morsels = total_morsels_;
    stats.engine = total_engine_;
    stats.inflight = inflight_;
    stats.pending = pending_.size();
    stats.total_queue_seconds = total_queue_seconds_;
    stats.total_execute_seconds = total_execute_seconds_;
    stats.max_latency_seconds = max_latency_seconds_;
    stats.adaptive_queries = adaptive_queries_;
    stats.adaptive_cache_hits = adaptive_cache_hits_;
    stats.adaptive_tuning_switches = adaptive_tuning_switches_;
    stats.adaptive_chosen_counts = adaptive_chosen_counts_;
    stats.tenants.reserve(tenants_.size());
    for (const auto& [tenant, book] : tenants_) {
      TenantServingStats t;
      t.tenant = tenant;
      t.submitted = book.submitted;
      t.completed = book.completed;
      t.rejected = book.rejected;
      t.shed = book.shed;
      t.goodput_queries = book.goodput;
      stats.tenants.push_back(t);
    }
    sorted = latencies_.Sorted();
  }
  stats.p50_latency_seconds = PercentileOfSorted(sorted, 0.50);
  stats.p95_latency_seconds = PercentileOfSorted(sorted, 0.95);
  stats.p99_latency_seconds = PercentileOfSorted(sorted, 0.99);
  return stats;
}

}  // namespace amac
