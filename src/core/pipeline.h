// Composable Pipeline / Executor API: multi-operator queries fused through
// one runtime entry point.
//
// The unified runtime (core/scheduler.h) runs ONE
// stage machine over N inputs.  Analytics queries are chains of operators —
// the paper's headline multi-operator workload is a hash-join probe feeding
// a group-by — and running them as disjoint phases materializes every
// intermediate result and re-pays the scheduling ramp per operator.  This
// header adds the layer above the engine:
//
//   * a *stage* concept: a resumable machine consuming one input row and
//     emitting zero or more output rows, parking on its own prefetches;
//   * `Pipeline`, a builder composing a source plus stages into one fused
//     engine operation, so a probe hit flows directly into the aggregation
//     insert (or the next lookup) without ever being materialized — and the
//     whole chain's dependent misses share one in-flight window;
//   * `Executor`, which owns the ExecPolicy + SchedulerParams + a
//     persistent ThreadPool and returns one unified `RunStats` from every
//     Run().
//
//   Executor exec(ExecConfig{ExecPolicy::kAmac, SchedulerParams{10, 1, 0},
//                            /*num_threads=*/8});
//   auto query = Scan(s).Then(Probe(table)).Then(Aggregate(agg));
//   RunStats stats = exec.Run(query);
//
// Stage concept (rows are relation Tuples):
//
//   struct MyStage {
//     struct State { ... };                   // full per-row state
//     void Start(State&, const Tuple& in);    // stage 0: init + 1st prefetch
//     template <typename Emit>
//     StepStatus Step(State&, Emit&& emit);   // one stage; emit(Tuple) rows
//   };
//
// A *source* is the same but index-driven: `Start(State&, uint64_t idx)`.
// Generic sources/stages (Scan, Filter, Map) live here; each data-structure
// layer contributes its own (Probe in join/join_ops.h, Aggregate in
// groupby/groupby_ops.h, LookupBTree / LookupBst / LookupSkipList in their
// ops headers, Walks in graph/graph_ops.h).
#pragma once

#include <array>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cycle_timer.h"
#include "common/hash.h"
#include "common/prefetch.h"
#include "common/thread_pool.h"
#include "core/run_stats.h"
#include "core/scheduler.h"
#include "metrics/perf_counters.h"
#include "relation/relation.h"
#include "server/query_scheduler.h"

namespace amac {

class Plan;  // plan/plan.h — the declarative layer above this one

/// Terminal sink for fused pipelines: counts emitted rows and folds them
/// into an order-independent checksum (the same mixing discipline as
/// join/sink.h's CountChecksumSink, over (key, payload)).
class RowSink {
 public:
  void Emit(const Tuple& row) {
    ++rows_;
    checksum_ +=
        Mix64(static_cast<uint64_t>(row.key) * 0x9e3779b97f4a7c15ull +
              static_cast<uint64_t>(row.payload));
  }

  uint64_t rows() const { return rows_; }
  uint64_t checksum() const { return checksum_; }

  void Merge(const RowSink& other) {
    rows_ += other.rows_;
    checksum_ += other.checksum_;
  }

 private:
  uint64_t rows_ = 0;
  uint64_t checksum_ = 0;
};

namespace detail {

/// Adapts a stage's emit callable to the (rid, payload) Sink interface the
/// shared traversal kernels use, re-emitting hits as Tuple{key, payload}
/// rows (the index-lookup stages of btree/skiplist use this).
template <typename EmitFn>
struct KeyedEmitSink {
  EmitFn& fn;
  int64_t key;
  void Emit(uint64_t, int64_t payload) { fn(Tuple{key, payload}); }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Generic sources and stages
// ---------------------------------------------------------------------------

/// Source scanning a relation: input i emits rel[i] downstream.
class ScanSource {
 public:
  struct State {
    uint64_t idx;
  };

  explicit ScanSource(const Relation& rel) : rel_(&rel) {}

  uint64_t size() const { return rel_->size(); }

  void Start(State& st, uint64_t idx) {
    st.idx = idx;
    Prefetch(rel_->data() + idx);
  }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    emit((*rel_)[st.idx]);
    return StepStatus::kDone;
  }

 private:
  const Relation* rel_;
};

/// Pure-compute stage dropping rows that fail `pred(row)`.  No prefetch, so
/// it costs one scheduling step per row (documented altitude cost of
/// keeping every stage uniform).
template <typename Pred>
class FilterStage {
 public:
  struct State {
    Tuple row;
  };

  explicit FilterStage(Pred pred) : pred_(std::move(pred)) {}

  void Start(State& st, const Tuple& in) { st.row = in; }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    if (pred_(st.row)) emit(st.row);
    return StepStatus::kDone;
  }

 private:
  Pred pred_;
};

template <typename Pred>
FilterStage<std::decay_t<Pred>> Filter(Pred&& pred) {
  return FilterStage<std::decay_t<Pred>>(std::forward<Pred>(pred));
}

/// Pure-compute stage rewriting each row as `fn(row)` (e.g. re-keying a
/// join output before aggregation).
template <typename Fn>
class MapStage {
 public:
  struct State {
    Tuple row;
  };

  explicit MapStage(Fn fn) : fn_(std::move(fn)) {}

  void Start(State& st, const Tuple& in) { st.row = in; }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    emit(fn_(st.row));
    return StepStatus::kDone;
  }

 private:
  Fn fn_;
};

template <typename Fn>
MapStage<std::decay_t<Fn>> Map(Fn&& fn) {
  return MapStage<std::decay_t<Fn>>(std::forward<Fn>(fn));
}

// ---------------------------------------------------------------------------
// The fused operation
// ---------------------------------------------------------------------------

/// The engine operation a Pipeline compiles to: the source plus every stage
/// machine of ONE input, chained.  Rows emitted by stage k queue into stage
/// k+1's pending list inside the same lookup state; Step() always advances
/// the *deepest* runnable stage, so intermediates stay tiny (at most one
/// upstream step's emissions) and a probe hit reaches the aggregation
/// insert before the next probe input is touched.  Every kParked/kRetry of
/// any stage parks the whole fused lookup, which is what lets one engine
/// window overlap misses across operators.
template <typename Source, typename Sink, typename... Stages>
class FusedOp {
  static constexpr size_t kNumStages = sizeof...(Stages);
  static_assert(kNumStages <= 16, "pipeline too deep for the running mask");

 public:
  struct State {
    typename Source::State source;
    std::tuple<typename Stages::State...> stages;
    /// pending[i]: rows emitted upstream, waiting to enter stage i.
    std::array<std::vector<Tuple>, kNumStages> pending;
    uint32_t running = 0;  ///< bit i: stage i is mid-row
    bool source_active = false;
  };

  FusedOp(const Source& source, const std::tuple<Stages...>& stages,
          Sink& sink)
      : source_(source), stages_(stages), sink_(&sink) {}

  void Start(State& st, uint64_t idx) {
    st.running = 0;
    st.source_active = true;
    for (auto& queue : st.pending) queue.clear();
    source_.Start(st.source, idx);
  }

  StepStatus Step(State& st) {
    StepStatus status;
    if (StepDeepest<kNumStages>(st, &status)) return status;
    if (st.source_active) {
      status = source_.Step(st.source, EmitterTo<0>(st));
      if (status != StepStatus::kDone) return status;
      st.source_active = false;
      return Drained(st) ? StepStatus::kDone : StepStatus::kParked;
    }
    return StepStatus::kDone;
  }

 private:
  /// Emitter feeding queue J; J == kNumStages is the terminal sink.
  template <size_t J>
  auto EmitterTo(State& st) {
    if constexpr (J == kNumStages) {
      return [this](const Tuple& row) { sink_->Emit(row); };
    } else {
      return [&st](const Tuple& row) { st.pending[J].push_back(row); };
    }
  }

  /// Advance the deepest stage that is mid-row or has pending input
  /// (stages J = I-1 .. 0).  Returns false when no stage had work.
  template <size_t I>
  bool StepDeepest(State& st, StepStatus* status) {
    if constexpr (I == 0) {
      (void)st;
      (void)status;
      return false;
    } else {
      constexpr size_t J = I - 1;
      if (st.running & (uint32_t{1} << J)) {
        const StepStatus s = std::get<J>(stages_).Step(
            std::get<J>(st.stages), EmitterTo<J + 1>(st));
        if (s != StepStatus::kDone) {
          *status = s;
          return true;
        }
        st.running &= ~(uint32_t{1} << J);
        *status = !st.source_active && Drained(st) ? StepStatus::kDone
                                                   : StepStatus::kParked;
        return true;
      }
      if (!st.pending[J].empty()) {
        const Tuple row = st.pending[J].back();
        st.pending[J].pop_back();
        std::get<J>(stages_).Start(std::get<J>(st.stages), row);
        st.running |= uint32_t{1} << J;
        // Park so the Start()'s prefetch matures before the first Step.
        *status = StepStatus::kParked;
        return true;
      }
      return StepDeepest<J>(st, status);
    }
  }

  static bool Drained(const State& st) {
    if (st.running != 0) return false;
    for (const auto& queue : st.pending) {
      if (!queue.empty()) return false;
    }
    return true;
  }

  Source source_;
  std::tuple<Stages...> stages_;
  Sink* sink_;
};

// ---------------------------------------------------------------------------
// Pipeline builder
// ---------------------------------------------------------------------------

/// Value-semantic builder: `Scan(s).Then(Probe(table)).Then(Aggregate(agg))`
/// describes a fused multi-operator query.  Stages hold pointers to their
/// shared read-only (or latched) structures, so a Pipeline is cheap to copy
/// and one instance compiles to any number of per-thread operations.
template <typename Source, typename... Stages>
class Pipeline {
 public:
  Pipeline(Source source, std::tuple<Stages...> stages)
      : source_(std::move(source)), stages_(std::move(stages)) {}

  /// Append a stage, returning the extended pipeline.
  template <typename S>
  Pipeline<Source, Stages..., S> Then(S stage) const {
    return Pipeline<Source, Stages..., S>(
        source_, std::tuple_cat(stages_, std::make_tuple(std::move(stage))));
  }

  uint64_t size() const { return source_.size(); }

  /// Materialize the fused engine operation emitting terminal rows into
  /// `sink` (one per execution slot on a multi-thread Executor).
  template <typename Sink>
  FusedOp<Source, Sink, Stages...> Compile(Sink& sink) const {
    return FusedOp<Source, Sink, Stages...>(source_, stages_, sink);
  }

 private:
  Source source_;
  std::tuple<Stages...> stages_;
};

/// Root builder: a pipeline whose inputs are the tuples of `rel`.
inline Pipeline<ScanSource> Scan(const Relation& rel) {
  return Pipeline<ScanSource>(ScanSource(rel), std::tuple<>{});
}

/// Root builder from any custom source (see graph/graph_ops.h's Walks).
template <typename Source>
Pipeline<std::decay_t<Source>> From(Source&& source) {
  return Pipeline<std::decay_t<Source>>(std::forward<Source>(source),
                                        std::tuple<>{});
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Execution configuration: the policy and tuning knobs every Run() uses.
/// Constructed (not aggregate) so the established positional form
/// `ExecConfig{policy, params, threads, morsel}` keeps compiling cleanly
/// as trailing knobs are added.
struct ExecConfig {
  ExecConfig() = default;
  ExecConfig(ExecPolicy policy_in, const SchedulerParams& params_in,
             uint32_t num_threads_in = 1, uint64_t morsel_size_in = 0)
      : policy(policy_in),
        params(params_in),
        num_threads(num_threads_in),
        morsel_size(morsel_size_in) {}

  ExecPolicy policy = ExecPolicy::kAmac;
  SchedulerParams params;
  uint32_t num_threads = 1;
  /// Morsel size for multi-threaded runs; 0 derives one (ResolveMorselSize).
  uint64_t morsel_size = 0;
  /// Governor knobs when policy == ExecPolicy::kAdaptive ("pick for me").
  AdaptiveConfig adaptive;
};

/// Owns the execution policy and a private QueryScheduler, of which it is
/// the trivial one-query client: every workload — a fused pipeline through
/// Run(), a single engine operation through RunOp() — submits one query
/// and waits for it, coming back as one RunStats.  The scheduler's
/// ThreadPool persists across runs, so repeated phases (bench reps,
/// query sequences) pay thread spawn once.  Policy and tuning can be
/// changed between runs; the team size is fixed at construction.  To run
/// MANY queries concurrently on one team, use a QueryScheduler directly
/// (server/query_scheduler.h) instead of many executors.
class Executor {
 public:
  explicit Executor(const ExecConfig& config);

  const ExecConfig& config() const { return config_; }
  ExecPolicy policy() const { return config_.policy; }
  uint32_t num_threads() const { return config_.num_threads; }
  ThreadPool& pool() { return scheduler_.pool(); }
  QueryScheduler& scheduler() { return scheduler_; }
  /// Calibration cache consulted by kAdaptive runs (shared across Run()
  /// calls: repeated query shapes skip straight to the measured winner).
  Calibrator& calibrator() { return scheduler_.calibrator(); }

  void set_policy(ExecPolicy policy) { config_.policy = policy; }
  void set_params(const SchedulerParams& params) { config_.params = params; }
  void set_morsel_size(uint64_t morsel_size) {
    config_.morsel_size = morsel_size;
  }

  /// Run a fused pipeline: one FusedOp + RowSink per thread, sinks merged
  /// into the returned stats.
  template <typename Source, typename... Stages>
  RunStats Run(const Pipeline<Source, Stages...>& pipeline) {
    std::vector<RowSink> sinks(config_.num_threads);
    RunStats stats = RunOp(pipeline.size(), [&](uint32_t tid) {
      return pipeline.Compile(sinks[tid]);
    });
    RowSink total;
    for (const auto& sink : sinks) total.Merge(sink);
    stats.outputs = total.rows();
    stats.checksum = total.checksum();
    return stats;
  }

  /// Run a declarative plan (plan/plan.h): enumerate its physical shapes,
  /// choose one by cost, execute it.  Defined in plan/plan.cpp; equivalent
  /// to RunPlan(*this, plan).run.
  RunStats Run(const Plan& plan);

  /// Run any engine Operation (core/engine.h): `make_op(tid)` instances
  /// over [0, num_inputs).
  /// Single-threaded executors run ONE engine over the whole range (no
  /// morselization), so engine counters — including GP/SPP window noops —
  /// equal the free Run(policy, params, op, n) path exactly.
  /// Multi-threaded executors submit the run as one scheduler query
  /// (morsel tasks on the persistent pool) and wait for it; `make_op` is
  /// called lazily with slot ids < num_threads(), one live morsel per
  /// slot, so the per-thread-sink discipline is unchanged.
  /// ExecPolicy::kAdaptive always takes the scheduler path (even with one
  /// thread): the governor needs a morsel stream to measure and re-tune
  /// on, so the counter-parity contract above applies to static policies
  /// only.
  template <typename OpFactory>
  RunStats RunOp(uint64_t num_inputs, OpFactory&& make_op) {
    if (config_.num_threads <= 1 &&
        config_.policy != ExecPolicy::kAdaptive) {
      RunStats stats;
      stats.inputs = num_inputs;
      WallTimer dispatch;
      auto op = make_op(0);
      // One counter group per thread, opened lazily and reused across
      // runs (perf_event_open is expensive; ioctl reset/enable is not).
      static thread_local PerfCounters counters;
      counters.Start();
      WallTimer wall;
      CycleTimer cycles;
      stats.engine =
          amac::Run(config_.policy, config_.params, op, num_inputs);
      stats.cycles = cycles.Elapsed();
      stats.seconds = wall.ElapsedSeconds();
      stats.perf = counters.Stop();
      stats.dispatch_seconds = dispatch.ElapsedSeconds();
      stats.threads = 1;
      return stats;
    }
    QueryOptions query;
    query.policy = config_.policy;
    query.params = config_.params;
    query.morsel_size = config_.morsel_size;
    query.adaptive = config_.adaptive;
    const QueryTicket ticket = scheduler_.SubmitOp(
        num_inputs, std::forward<OpFactory>(make_op), query);
    return scheduler_.Wait(ticket).run;
  }

 private:
  ExecConfig config_;
  QueryScheduler scheduler_;
};

// ---------------------------------------------------------------------------
// Pipelines as scheduler queries
// ---------------------------------------------------------------------------

/// Submit a fused pipeline to a QueryScheduler as one concurrent query:
/// one FusedOp + RowSink per execution slot, folded into the RunStats
/// (outputs/checksum) when the last morsel drains.  The pipeline is copied
/// into the query (value semantics; stages point at shared structures that
/// must outlive the query).
template <typename Source, typename... Stages>
QueryTicket Submit(QueryScheduler& scheduler,
                   const Pipeline<Source, Stages...>& pipeline,
                   const QueryOptions& options = {}) {
  auto sinks =
      std::make_shared<std::vector<RowSink>>(scheduler.SlotCount(options));
  return scheduler.SubmitOp(
      pipeline.size(),
      [sinks, pipeline](uint32_t slot) {
        return pipeline.Compile((*sinks)[slot]);
      },
      options, [sinks](RunStats* run) {
        RowSink total;
        for (const RowSink& sink : *sinks) total.Merge(sink);
        run->outputs = total.rows();
        run->checksum = total.checksum();
      });
}

}  // namespace amac
