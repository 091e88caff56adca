// Concurrent multi-query serving: a shared-pool scheduler with admission
// control.
//
// The paper's interleaving keeps ONE query's dependent misses overlapped;
// a serving system has many queries in flight at once.  An Executor is a
// one-query client of a private QueryScheduler, so its Run() calls go back
// to back.  QueryScheduler multiplexes many clients: every admitted
// query is chopped into morsels, and each in-flight morsel is one task on
// one shared common/ThreadPool — tasks re-enqueue themselves to the BACK of
// the FIFO queue after each morsel, so morsels from different queries
// round-robin across the same workers and a long scan cannot starve a
// point-lookup query.
//
//   QueryScheduler sched({.num_workers = 8, .max_inflight_queries = 4});
//   QueryTicket a = Submit(sched, Scan(s).Then(Probe(table)), options);
//   QueryTicket b = Submit(sched, Walks(graph, 1 << 20, 16, 7), options);
//   QueryStats qa = sched.Wait(a);   // Wait() helps drain the task queue
//
// Admission control: at most `max_inflight_queries` queries execute
// concurrently; the rest wait in an admission queue ordered by submission
// (kFifo) or earliest deadline (kDeadline), optionally bounded
// (`max_pending` rejects) and pruned of expired work (`shed_expired`).
// Per-query QueryStats split latency into queue-wait vs execute time;
// scheduler-level ServingStats aggregate p50/p95/p99 latency and
// per-tenant outcomes across completed queries — the latency-under-load
// accounting bench/ext_serving.cpp drives.
//
// Threading model: the pool's `size() - 1` workers drain the task queue;
// client threads blocked in Wait() also pump tasks (work-conserving), so a
// scheduler over a 1-thread pool still makes progress.  Per-query
// parallelism is bounded by execution *slots*: `make_op(slot)` is called
// lazily, at most once per slot, with slot < slots(); a slot is held
// exclusively while one of the query's morsels runs, which is what lets
// op factories keep the familiar per-thread-sink discipline.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <typeinfo>
#include <utility>
#include <vector>

#include "adaptive/calibrator.h"
#include "adaptive/governor.h"
#include "adaptive/signature.h"
#include "common/cycle_timer.h"
#include "common/macros.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/run_stats.h"
#include "core/scheduler.h"

namespace amac {

/// How the admission queue orders queries waiting for an inflight slot.
enum class AdmissionOrder : uint8_t {
  kFifo,      ///< submission order
  kDeadline,  ///< earliest absolute deadline first (EDF); no-deadline
              ///< queries admit last, FIFO among themselves
};

struct QuerySchedulerOptions {
  /// Thread-team size (including the slot client threads fill by pumping
  /// in Wait()); clamped to >= 1.
  uint32_t num_workers = 1;
  /// Queries executing concurrently before submissions queue up in the
  /// admission queue; 0 = unbounded.
  uint32_t max_inflight_queries = 0;
  AdmissionOrder order = AdmissionOrder::kFifo;
  /// Bound on the admission queue: a submission arriving with this many
  /// queries already pending is REJECTED immediately (outcome kRejected)
  /// instead of queueing forever — the load-shedding half of SLO-aware
  /// serving.  0 = unbounded (the closed-loop default).
  uint32_t max_pending = 0;
  /// Shed pending queries whose deadline already expired at the moment
  /// they would be admitted (outcome kShed): work that cannot possibly
  /// meet its SLO is dropped instead of wasting workers.  Queries without
  /// a deadline are never shed.
  bool shed_expired = false;
};

/// Per-query execution configuration (the Executor's ExecConfig knobs plus
/// serving-level ones).
struct QueryOptions {
  ExecPolicy policy = ExecPolicy::kAmac;
  SchedulerParams params;
  /// Inputs per morsel; 0 derives one (ResolveMorselSize).  Morsel size is
  /// also the interleaving granule: smaller morsels = fairer sharing,
  /// more scheduling overhead.
  uint64_t morsel_size = 0;
  /// Client-observed latency SLO in seconds, measured submit-to-complete;
  /// 0 = none.  A deadline never aborts a running query — it drives EDF
  /// admission (kDeadline), expiry shedding (shed_expired), and the
  /// goodput/deadline-miss accounting in QueryStats / ServingStats.
  double deadline_seconds = 0;
  /// Tenant id for per-tenant accounting (ServingStats::tenants).
  uint32_t tenant = 0;
  /// Cap on this query's concurrent morsels (execution slots); 0 = the
  /// scheduler's num_workers.
  uint32_t max_slots = 0;
  /// Under ExecPolicy::kAdaptive: the governor's tuning knobs.  The
  /// calibration-cache key is derived from the operation type + input
  /// cardinality + per-lookup state size.
  AdaptiveConfig adaptive;
};

/// What Wait() returns: the familiar RunStats plus the serving split of
/// this query's latency.  run.seconds covers first-morsel to completion
/// (execute span); queue_seconds covers submit to first morsel (admission
/// wait + time behind other queries' morsels); latency_seconds is the
/// client-observed total (== run.dispatch_seconds).
/// Rejected/shed queries come back with outcome != kServed, an all-zero
/// `run`, and latency_seconds = submit-to-decision (so callers can account
/// the refusal cost); they never appear in ServingStats latency
/// percentiles or counter sums.
struct QueryStats {
  RunStats run;
  double queue_seconds = 0;
  double latency_seconds = 0;
  QueryOutcome outcome = QueryOutcome::kServed;
  double deadline_seconds = 0;  ///< the query's SLO (0 = none)
  /// Served within its deadline (always true for deadline-free served
  /// queries, always false for rejected/shed ones).
  bool deadline_met = true;
};

/// Per-tenant slice of the serving accounting.
struct TenantServingStats {
  uint32_t tenant = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;    ///< served to completion
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t goodput_queries = 0;  ///< served AND met deadline (or had none)
};

/// Scheduler-level accounting over completed queries.  Latency
/// percentiles are computed over a bounded reservoir sample (uniform over
/// all completed queries), so a long-lived scheduler stays O(1) in memory
/// and serving_stats() cost no matter how many queries it has served;
/// max_latency_seconds is an exact running maximum, not sampled.
struct ServingStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;     ///< served to completion
  uint64_t rejected = 0;      ///< refused at submit (admission queue full)
  uint64_t shed = 0;          ///< dropped pending (deadline expired)
  /// Served queries that met their deadline, plus served queries with no
  /// deadline.  goodput-under-SLO — the headline serving metric — is this
  /// over the measurement window, NOT completed/window: a reply after its
  /// deadline is useless work.
  uint64_t goodput_queries = 0;
  uint64_t deadline_missed = 0;  ///< served, but past the deadline
  uint64_t morsels = 0;       ///< morsels executed, all completed queries
  EngineStats engine;         ///< merged scheduling counters, ditto
  /// Racy point-in-time queue depths (observability only).
  uint64_t inflight = 0;
  uint64_t pending = 0;
  // Latency percentiles cover SERVED queries only: a rejected query's
  // submit-to-refusal time is not a service latency (it is accounted in
  // `rejected`), and folding refusals in would make shedding look like a
  // latency win twice over.
  double p50_latency_seconds = 0;
  double p95_latency_seconds = 0;
  double p99_latency_seconds = 0;
  double max_latency_seconds = 0;
  double total_queue_seconds = 0;    ///< sum of per-query queue waits
  double total_execute_seconds = 0;  ///< sum of per-query execute spans
  /// Per-tenant slices, ascending tenant id (only tenants seen).
  std::vector<TenantServingStats> tenants;
  // Adaptive-execution accounting (kAdaptive queries only).
  uint64_t adaptive_queries = 0;     ///< completed governed queries
  uint64_t adaptive_cache_hits = 0;  ///< of those, calibration-cache hits
  uint64_t adaptive_tuning_switches = 0;  ///< summed winner changes
  /// How often each static policy ended up the governed choice, indexed by
  /// StaticExecPolicyIndex.
  std::array<uint64_t, kNumStaticExecPolicies> adaptive_chosen_counts{};
};

namespace detail {

/// Type-erased shared state of one submitted query.  The typed morsel
/// runner (one per Submit call) lives behind run_one_morsel; everything the
/// scheduler itself touches is virtual-free plain data.
struct QueryState {
  // Immutable after Submit().
  uint64_t num_inputs = 0;
  uint64_t num_morsels = 0;  ///< bounds the pump-task fan-out
  uint32_t slots = 0;
  double deadline_seconds = 0;  ///< relative to submit; 0 = none
  uint32_t tenant = 0;
  /// Run one morsel on the given slot; false once the cursor is exhausted.
  std::function<bool(uint32_t)> run_one_morsel;
  /// Fold per-slot sinks/engine counters into the final RunStats.
  std::function<void(RunStats*)> collect;

  // Slot free-list (guarded by slot_mu).
  std::mutex slot_mu;
  std::vector<uint32_t> free_slots;

  /// Pump tasks still alive for this query; the task that observes the
  /// final decrement finalizes the query.
  std::atomic<uint32_t> outstanding{0};

  // Timing: one clock pair, started in Submit().  The first pump task
  // stamps the queue wait on it (exchange on `started` picks the winner);
  // the execute span is the rest of the latency.
  WallTimer submit_timer;
  CycleTimer submit_cycles;
  std::atomic<bool> started{false};
  double queue_seconds = 0;  ///< written by the starter, read after done
  uint64_t queue_cycles = 0; ///< written by the starter, read after done

  // Completion.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  ///< guarded by mu
  QueryStats result;  ///< valid once done
};

}  // namespace detail

/// Future-style handle to a submitted query; pass to Wait()/Finished().
/// Copyable; all copies refer to the same query.
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class QueryScheduler;
  explicit QueryTicket(std::shared_ptr<detail::QueryState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::QueryState> state_;
};

class QueryScheduler {
 public:
  explicit QueryScheduler(const QuerySchedulerOptions& options);
  /// Drains: blocks until every submitted query completed.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  uint32_t num_workers() const { return pool_.size(); }
  const QuerySchedulerOptions& options() const { return options_; }
  ThreadPool& pool() { return pool_; }
  /// The shared calibration cache governed (kAdaptive) queries consult; a
  /// repeated query shape calibrates once per scheduler lifetime.
  Calibrator& calibrator() { return calibrator_; }

  /// Execution slots a query submitted with `options` will get (what sizes
  /// a per-slot sink array).
  uint32_t SlotCount(const QueryOptions& options) const {
    const uint32_t cap = options.max_slots == 0
                             ? pool_.size()
                             : std::min(options.max_slots, pool_.size());
    return std::max(1u, cap);
  }

  /// Submit a query as (num_inputs, per-slot operation factory): the same
  /// contract as Executor::RunOp, except `make_op(slot)` is invoked lazily
  /// with slot < SlotCount(options) instead of a thread id.  `collect`
  /// (optional) folds per-slot sinks into the final RunStats after the last
  /// morsel (outputs/checksum); it runs exactly once, race-free.
  /// The factory must tolerate outliving the Submit call (it is copied).
  template <typename OpFactory>
  QueryTicket SubmitOp(uint64_t num_inputs, OpFactory make_op,
                       const QueryOptions& options,
                       std::function<void(RunStats*)> collect = nullptr) {
    using OpType = std::decay_t<decltype(make_op(0u))>;
    auto state = std::make_shared<detail::QueryState>();
    state->num_inputs = num_inputs;
    state->slots = SlotCount(options);
    state->deadline_seconds = std::max(0.0, options.deadline_seconds);
    state->tenant = options.tenant;
    // Governed queries: build the per-query governor (its calibration is
    // cached under the query shape's signature) and morselize finer, so
    // the calibration tournament has enough claims to run on.
    std::shared_ptr<QueryGovernor> governor;
    uint64_t morsel_size;
    if (options.policy == ExecPolicy::kAdaptive) {
      governor = std::make_shared<QueryGovernor>(
          options.adaptive, &calibrator_,
          WorkloadSignature::Make(
              typeid(OpType).name(), num_inputs,
              static_cast<uint32_t>(sizeof(typename OpType::State))),
          options.params.stages);
      morsel_size = options.morsel_size > 0
                        ? options.morsel_size
                        : AdaptiveMorselSize(num_inputs, state->slots);
    } else {
      morsel_size = ResolveMorselSize(
          num_inputs, state->slots, options.morsel_size,
          std::max(1u, options.params.inflight));
    }
    state->num_morsels = (num_inputs + morsel_size - 1) / morsel_size;

    struct Slot {
      std::optional<OpType> op;
      EngineStats engine;
      uint64_t morsels = 0;
    };
    struct Typed {
      OpFactory make_op;
      MorselCursor cursor;
      ExecPolicy policy;
      SchedulerParams params;
      std::shared_ptr<QueryGovernor> governor;  ///< null on static policies
      std::vector<Slot> slots;
      Typed(OpFactory factory, uint64_t total, uint64_t morsel,
            const QueryOptions& options, uint32_t num_slots)
          : make_op(std::move(factory)),
            cursor(total, morsel),
            policy(options.policy),
            params(options.params),
            slots(num_slots) {}
    };
    auto typed = std::make_shared<Typed>(std::move(make_op), num_inputs,
                                         morsel_size, options, state->slots);
    typed->governor = std::move(governor);
    state->run_one_morsel = [typed](uint32_t slot_id) {
      Range morsel;
      if (!typed->cursor.Next(&morsel)) return false;
      Slot& slot = typed->slots[slot_id];
      if (!slot.op) slot.op.emplace(typed->make_op(slot_id));
      OffsetOp<typename decltype(slot.op)::value_type> rebased(*slot.op,
                                                               morsel.begin);
      if (typed->governor) {
        const QueryGovernor::Choice choice = typed->governor->Acquire();
        CycleTimer timer;
        slot.engine.Merge(
            Run(choice.policy, choice.params, rebased, morsel.size()));
        typed->governor->Report(choice, morsel.size(), timer.Elapsed());
      } else {
        slot.engine.Merge(
            Run(typed->policy, typed->params, rebased, morsel.size()));
      }
      ++slot.morsels;
      return true;
    };
    state->collect = [typed, collect](RunStats* run) {
      for (const Slot& slot : typed->slots) {
        run->engine.Merge(slot.engine);
        run->morsels += slot.morsels;
      }
      if (typed->governor) typed->governor->Finalize(&run->adaptive);
      if (collect) collect(run);
    };
    QueryTicket ticket(state);
    Enqueue(std::move(state));
    return ticket;
  }

  /// Block until the query completes; helps drain the task queue while
  /// waiting, so Wait() never idles a core the scheduler could use.
  QueryStats Wait(const QueryTicket& ticket);

  /// Non-blocking completion check.
  bool Finished(const QueryTicket& ticket) const;

  /// Block until every query submitted so far has completed.
  void Drain();

  /// Snapshot of the scheduler-level accounting (completed queries only).
  ServingStats serving_stats() const;

 private:
  /// Per-tenant bookkeeping behind ServingStats::tenants (guarded by mu_).
  struct TenantBook {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;
    uint64_t goodput = 0;
  };

  /// Queue the query for admission (admit immediately, queue, or reject).
  void Enqueue(std::shared_ptr<detail::QueryState> state);
  /// Launch the pump tasks of an admitted query.  Called under mu_.
  void LaunchLocked(const std::shared_ptr<detail::QueryState>& state);
  /// One pump step: run one morsel, resubmit or finalize.
  void Pump(const std::shared_ptr<detail::QueryState>& state);
  /// Last pump task of a query: fold stats, publish, admit the next.
  void Finish(const std::shared_ptr<detail::QueryState>& state);
  /// Pop the next admissible query per `order`.  Called under mu_.
  std::shared_ptr<detail::QueryState> PopPendingLocked();
  /// Admit pending queries while inflight slots are free, moving
  /// expired-deadline queries into `shed` (finalize them after releasing
  /// mu_).  Called under mu_.
  void AdmitPendingLocked(
      std::vector<std::shared_ptr<detail::QueryState>>* shed);
  /// Publish a never-launched query (rejected or shed): all-zero RunStats,
  /// outcome set, counted outside the served sums.  Takes mu_ + state mu.
  void FinalizeUnlaunched(const std::shared_ptr<detail::QueryState>& state,
                          QueryOutcome outcome);
  bool AllDoneLocked() const {
    return completed_ + rejected_ + shed_ == submitted_;
  }

  QuerySchedulerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  uint32_t inflight_ = 0;                                  ///< guarded by mu_
  std::deque<std::shared_ptr<detail::QueryState>> pending_;  ///< ditto
  // Serving accounting (guarded by mu_).
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t shed_ = 0;
  uint64_t goodput_queries_ = 0;
  uint64_t deadline_missed_ = 0;
  uint64_t total_morsels_ = 0;
  EngineStats total_engine_;
  double total_queue_seconds_ = 0;
  double total_execute_seconds_ = 0;
  double max_latency_seconds_ = 0;  ///< exact running max (not sampled)
  uint64_t adaptive_queries_ = 0;
  uint64_t adaptive_cache_hits_ = 0;
  uint64_t adaptive_tuning_switches_ = 0;
  std::array<uint64_t, kNumStaticExecPolicies> adaptive_chosen_counts_{};
  std::map<uint32_t, TenantBook> tenants_;  ///< guarded by mu_
  /// Uniform reservoir sample of SERVED per-query latencies
  /// (kLatencySampleCap slots), so percentile accounting cannot grow with
  /// uptime; common/stats.h ReservoirSample (seeded Algorithm R, so the
  /// stats are deterministic for a fixed completion sequence).
  static constexpr size_t kLatencySampleCap = 4096;
  static constexpr uint64_t kLatencySampleSeed = 0x5e71e5a7f0e57a75ull;
  ReservoirSample latencies_{kLatencySampleCap, kLatencySampleSeed};

  /// Calibration cache (internally synchronized, so not under mu_).
  Calibrator calibrator_;

  /// Declared LAST so it is destroyed FIRST: the pool's destructor joins
  /// the workers, and a worker finishing its final task still touches the
  /// mutexes/condition variables above (Finish's notifications).  After
  /// the dtor's Drain() there is no queued work, but the *notify* of the
  /// last completion may still be in flight on a worker.
  ThreadPool pool_;
};

}  // namespace amac
