// Plan compilation, cost-driven shape selection, and execution.
//
// Layering: this file compiles logical plans down onto the EXISTING
// physical layer — Pipeline/FusedOp for fused chains, BuildPhase
// (join/hash_join.h) for plan-built tables, RunGroupBy (groupby/groupby.h)
// for aggregation phases (which keeps the fig09 sequential baseline anchor
// and the vectorized GroupByOp path engaged underneath plans).  The
// dependency points one way: plan.cpp -> drivers -> ops.
//
// Type-erasure keeps the template surface bounded: all filters/maps of a
// plan collapse into ONE DynScanSource (folded into the scan, zero extra
// stages) or ONE DynRowStage (post-join), whatever their count, so the
// enumerable pipeline shapes stay a fixed, small set of FusedOp
// instantiations.
#include "plan/plan.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/calibrator.h"
#include "adaptive/signature.h"
#include "btree/btree_ops.h"
#include "common/cycle_timer.h"
#include "common/macros.h"
#include "common/prefetch.h"
#include "common/thread_pool.h"
#include "core/ops.h"
#include "graph/graph_ops.h"
#include "groupby/groupby.h"
#include "groupby/groupby_ops.h"
#include "join/join_ops.h"
#include "join/sink.h"
#include "skiplist/skiplist_ops.h"

namespace amac {

const char* PlanNodeKindName(PlanNodeKind kind) {
  switch (kind) {
    case PlanNodeKind::kScan: return "scan";
    case PlanNodeKind::kWalks: return "walks";
    case PlanNodeKind::kFilter: return "filter";
    case PlanNodeKind::kMap: return "map";
    case PlanNodeKind::kHashJoin: return "hash-join";
    case PlanNodeKind::kLookup: return "lookup";
    case PlanNodeKind::kLookupBTree: return "btree";
    case PlanNodeKind::kLookupBst: return "bst";
    case PlanNodeKind::kLookupSkip: return "skiplist";
    case PlanNodeKind::kGroupBy: return "group-by";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Plan builders
// ---------------------------------------------------------------------------

Plan Plan::Scan(const Relation& rel) {
  Plan plan;
  PlanNode node;
  node.kind = PlanNodeKind::kScan;
  node.rel = &rel;
  plan.nodes_.push_back(std::move(node));
  return plan;
}

Plan Plan::Walks(const CsrGraph& graph, uint64_t num_walkers, uint32_t hops,
                 uint64_t seed) {
  Plan plan;
  PlanNode node;
  node.kind = PlanNodeKind::kWalks;
  node.graph = &graph;
  node.walkers = num_walkers;
  node.hops = hops;
  node.seed = seed;
  plan.nodes_.push_back(std::move(node));
  return plan;
}

Plan Plan::Append(PlanNode node) const {
  AMAC_CHECK_MSG(!nodes_.empty(), "plan: add a source first");
  AMAC_CHECK_MSG(nodes_.back().kind != PlanNodeKind::kGroupBy,
                 "plan: GroupBy is terminal");
  Plan out = *this;
  out.nodes_.push_back(std::move(node));
  return out;
}

Plan Plan::Filter(std::function<bool(const Tuple&)> pred) const {
  PlanNode node;
  node.kind = PlanNodeKind::kFilter;
  node.pred = std::move(pred);
  return Append(std::move(node));
}

Plan Plan::Map(std::function<Tuple(const Tuple&)> fn) const {
  PlanNode node;
  node.kind = PlanNodeKind::kMap;
  node.map = std::move(fn);
  return Append(std::move(node));
}

Plan Plan::HashJoin(const Relation& rel, const JoinOptions& options) const {
  PlanNode node;
  node.kind = PlanNodeKind::kHashJoin;
  node.rel = &rel;
  node.join = options;
  return Append(std::move(node));
}

Plan Plan::Lookup(const ChainedHashTable& table, bool early_exit) const {
  PlanNode node;
  node.kind = PlanNodeKind::kLookup;
  node.table = &table;
  node.early_exit = early_exit;
  return Append(std::move(node));
}

Plan Plan::LookupBTree(const BTree& tree) const {
  PlanNode node;
  node.kind = PlanNodeKind::kLookupBTree;
  node.btree = &tree;
  return Append(std::move(node));
}

Plan Plan::LookupBst(const BinarySearchTree& tree) const {
  PlanNode node;
  node.kind = PlanNodeKind::kLookupBst;
  node.bst = &tree;
  return Append(std::move(node));
}

Plan Plan::LookupSkipList(const SkipList& list) const {
  PlanNode node;
  node.kind = PlanNodeKind::kLookupSkip;
  node.skiplist = &list;
  return Append(std::move(node));
}

Plan Plan::GroupBy(uint64_t expected_groups,
                   AggregateTable::Options options) const {
  PlanNode node;
  node.kind = PlanNodeKind::kGroupBy;
  node.expected_groups = expected_groups;
  node.group_options = options;
  return Append(std::move(node));
}

Plan Plan::GroupByInto(AggregateTable* table) const {
  AMAC_CHECK(table != nullptr);
  PlanNode node;
  node.kind = PlanNodeKind::kGroupBy;
  node.group_into = table;
  return Append(std::move(node));
}

// ---------------------------------------------------------------------------
// Plan analysis
// ---------------------------------------------------------------------------

namespace {

/// The supported grammar, extracted and validated:
///   (scan | walks) [filter|map]* [hash-join | lookup | index]?
///                  [filter|map]* [group-by]?
/// Joins and index lookups require a scan source; walks chains carry
/// filters/maps and an optional terminal group-by.
struct Profile {
  const PlanNode* source = nullptr;
  std::vector<const PlanNode*> pre;   ///< fns before the join/index
  const PlanNode* join = nullptr;     ///< kHashJoin or kLookup
  const PlanNode* index = nullptr;    ///< kLookupBTree/Bst/Skip
  std::vector<const PlanNode*> post;  ///< fns after the join/index
  const PlanNode* groupby = nullptr;

  bool lean() const { return pre.empty() && post.empty(); }
  /// The join declared unique build keys (early-exit) — the precondition
  /// for result-identical structural alternatives.
  bool unique_build() const {
    if (join == nullptr) return false;
    return join->kind == PlanNodeKind::kHashJoin ? join->join.early_exit
                                                 : join->early_exit;
  }
};

Profile Analyze(const Plan& plan) {
  AMAC_CHECK_MSG(!plan.nodes().empty(), "plan: empty");
  Profile p;
  for (const PlanNode& node : plan.nodes()) {
    AMAC_CHECK_MSG(p.groupby == nullptr, "plan: GroupBy is terminal");
    switch (node.kind) {
      case PlanNodeKind::kScan:
      case PlanNodeKind::kWalks:
        AMAC_CHECK_MSG(p.source == nullptr, "plan: one source only");
        p.source = &node;
        break;
      case PlanNodeKind::kFilter:
      case PlanNodeKind::kMap:
        AMAC_CHECK_MSG(p.source != nullptr, "plan: add a source first");
        (p.join != nullptr || p.index != nullptr ? p.post : p.pre)
            .push_back(&node);
        break;
      case PlanNodeKind::kHashJoin:
      case PlanNodeKind::kLookup:
        AMAC_CHECK_MSG(
            p.source != nullptr && p.source->kind == PlanNodeKind::kScan,
            "plan: joins need a Scan source");
        AMAC_CHECK_MSG(p.join == nullptr && p.index == nullptr,
                       "plan: one join/lookup per plan");
        p.join = &node;
        break;
      case PlanNodeKind::kLookupBTree:
      case PlanNodeKind::kLookupBst:
      case PlanNodeKind::kLookupSkip:
        AMAC_CHECK_MSG(
            p.source != nullptr && p.source->kind == PlanNodeKind::kScan,
            "plan: index lookups need a Scan source");
        AMAC_CHECK_MSG(p.join == nullptr && p.index == nullptr,
                       "plan: one join/lookup per plan");
        p.index = &node;
        break;
      case PlanNodeKind::kGroupBy:
        AMAC_CHECK_MSG(p.source != nullptr, "plan: add a source first");
        p.groupby = &node;
        break;
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Type-erased row functions: the instantiation bound
// ---------------------------------------------------------------------------

/// In-place row transform: mutate `row`, return false to drop it.  One
/// vector of these represents ANY number of logical Filter/Map nodes.
using RowFn = std::function<bool(Tuple&)>;

std::vector<RowFn> CollectFns(const std::vector<const PlanNode*>& nodes) {
  std::vector<RowFn> fns;
  fns.reserve(nodes.size());
  for (const PlanNode* node : nodes) {
    if (node->kind == PlanNodeKind::kFilter) {
      auto pred = node->pred;
      fns.push_back([pred](Tuple& row) { return pred(row); });
    } else {
      auto map = node->map;
      fns.push_back([map](Tuple& row) {
        row = map(row);
        return true;
      });
    }
  }
  return fns;
}

/// ScanSource with the plan's pre-join filters/maps folded into the scan
/// step itself — surviving rows cost no extra pipeline stage, and one
/// source type covers any fn count (see the header comment on bounding
/// instantiations).  With no fns this is ScanSource exactly (same
/// prefetch, same one-step emission).
class DynScanSource {
 public:
  struct State {
    uint64_t idx;
  };

  DynScanSource(const Relation& rel, std::vector<RowFn> fns)
      : rel_(&rel), fns_(std::move(fns)) {}

  uint64_t size() const { return rel_->size(); }

  void Start(State& st, uint64_t idx) {
    st.idx = idx;
    Prefetch(rel_->data() + idx);
  }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    Tuple row = (*rel_)[st.idx];
    for (const RowFn& fn : fns_) {
      if (!fn(row)) return StepStatus::kDone;
    }
    emit(row);
    return StepStatus::kDone;
  }

 private:
  const Relation* rel_;
  std::vector<RowFn> fns_;
};

/// One pipeline stage applying a chain of RowFns to each row (post-join
/// filters/maps).
class DynRowStage {
 public:
  struct State {
    Tuple row;
  };

  explicit DynRowStage(std::vector<RowFn> fns) : fns_(std::move(fns)) {}

  void Start(State& st, const Tuple& in) { st.row = in; }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    Tuple row = st.row;
    for (const RowFn& fn : fns_) {
      if (!fn(row)) return StepStatus::kDone;
    }
    emit(row);
    return StepStatus::kDone;
  }

 private:
  std::vector<RowFn> fns_;
};

// ---------------------------------------------------------------------------
// Shape execution
// ---------------------------------------------------------------------------

/// Fill an aggregating run's outputs/checksum, and the rows the table
/// holds (`group_rows`), from one summary pass on the executor's team.
RunStats FillGroupStats(Executor& exec, RunStats run,
                        const AggregateTable& table, uint64_t* group_rows) {
  const GroupSummary summary = table.Summarize(&exec.pool());
  run.outputs = summary.groups;
  run.checksum = summary.checksum;
  *group_rows = summary.rows;
  return run;
}

template <typename PipelineT>
RunStats RunMaybeAgg(Executor& exec, const PipelineT& pipeline,
                     AggregateTable* groups, uint64_t* group_rows) {
  if (groups != nullptr) {
    return FillGroupStats(exec,
                          exec.Run(pipeline.Then(Aggregate<true>(*groups))),
                          *groups, group_rows);
  }
  return exec.Run(pipeline);
}

template <typename PipelineT>
RunStats RunTail(Executor& exec, const PipelineT& pipeline,
                 const std::vector<RowFn>& fns, AggregateTable* groups,
                 uint64_t* group_rows) {
  if (!fns.empty()) {
    return RunMaybeAgg(exec, pipeline.Then(DynRowStage(fns)), groups,
                       group_rows);
  }
  return RunMaybeAgg(exec, pipeline, groups, group_rows);
}

/// Execute the fused form of a plan over its whole source.  `table` is
/// the join's table (unused without a join).  With `groups`, the group
/// summary's rows are stored to `group_rows`.
RunStats RunFused(Executor& exec, const Profile& p,
                  const ChainedHashTable* table, AggregateTable* groups,
                  uint64_t* group_rows) {
  std::vector<RowFn> pre = CollectFns(p.pre);
  std::vector<RowFn> post = CollectFns(p.post);
  if (p.source->kind == PlanNodeKind::kWalks) {
    const PlanNode& w = *p.source;
    return RunTail(exec, Walks(*w.graph, w.walkers, w.hops, w.seed), pre,
                   groups, group_rows);
  }
  const Relation& probe = *p.source->rel;
  if (p.join != nullptr) {
    auto base = From(DynScanSource(probe, std::move(pre)));
    if (p.unique_build()) {
      return RunTail(exec, base.Then(Probe<true>(*table)), post, groups,
                     group_rows);
    }
    return RunTail(exec, base.Then(Probe<false>(*table)), post, groups,
                   group_rows);
  }
  if (p.index != nullptr) {
    auto base = From(DynScanSource(probe, std::move(pre)));
    switch (p.index->kind) {
      case PlanNodeKind::kLookupBTree:
        return RunTail(exec, base.Then(LookupBTree(*p.index->btree)), post,
                       groups, group_rows);
      case PlanNodeKind::kLookupBst:
        return RunTail(exec, base.Then(LookupBst(*p.index->bst)), post,
                       groups, group_rows);
      default:
        return RunTail(exec, base.Then(LookupSkipList(*p.index->skiplist)),
                       post, groups, group_rows);
    }
  }
  if (groups != nullptr && pre.empty()) {
    // Pure scan -> group-by: drive the group-by driver directly, keeping
    // the fig09 sequential baseline anchor and the vectorized GroupByOp
    // path underneath plans.
    GroupSummary summary;
    const RunStats run = RunGroupBy(exec, probe, groups, &summary);
    *group_rows = summary.rows;
    return run;
  }
  return RunTail(exec, From(DynScanSource(probe, std::move(pre))), {},
                 groups, group_rows);
}

/// Execute the two-phase form: probe-materialize (MaterializeSink per
/// slot), rebuild the canonical intermediate relation, then a separate
/// group-by phase — fig12's materialized plan.  Returns the
/// phases merged into one RunStats (inputs = probe rows, outputs/checksum
/// = the aggregation's); `group_rows` receives the group summary's rows.
RunStats RunTwoPhase(Executor& exec, const Relation& probe,
                     const ChainedHashTable& table, AggregateTable* groups,
                     uint64_t* group_rows) {
  const uint32_t slots = exec.num_threads();
  // Early-exit probe (two-phase is only enumerated for unique build keys):
  // at most one emission per probe tuple bounds each slot's sink.
  std::vector<MaterializeSink> sinks;
  sinks.reserve(slots);
  for (uint32_t t = 0; t < slots; ++t) sinks.emplace_back(probe.size());
  RunStats phase1 = exec.RunOp(probe.size(), [&](uint32_t tid) {
    return ProbeOp<true, MaterializeSink>(table, probe, sinks[tid]);
  });
  CycleTimer mid_cycles;
  WallTimer mid_wall;
  // Each slot's rows land at its prefix-summed offset, so the slots copy
  // in parallel and `mid` keeps slot order.
  std::vector<uint64_t> offsets(slots + 1, 0);
  for (uint32_t t = 0; t < slots; ++t) {
    offsets[t + 1] = offsets[t] + sinks[t].size();
  }
  const uint64_t total = offsets[slots];
  Relation mid(total);
  ForRanges(&exec.pool(), slots, [&](uint32_t, Range range) {
    for (uint64_t t = range.begin; t < range.end; ++t) {
      const MaterializeSink& sink = sinks[t];
      Tuple* out = mid.data() + offsets[t];
      for (uint64_t i = 0; i < sink.size(); ++i) {
        const Tuple& row = sink.data()[i];
        out[i] =
            Tuple{row.payload, probe[static_cast<uint64_t>(row.key)].payload};
      }
    }
  });
  const uint64_t mid_elapsed = mid_cycles.Elapsed();
  const double mid_seconds = mid_wall.ElapsedSeconds();
  GroupSummary summary;
  RunStats phase2 = RunGroupBy(exec, mid, groups, &summary);
  *group_rows = summary.rows;
  RunStats run = phase1;
  run.engine.Merge(phase2.engine);
  run.morsels += phase2.morsels;
  run.cycles += mid_elapsed + phase2.cycles;
  run.seconds += mid_seconds + phase2.seconds;
  run.dispatch_seconds += mid_seconds + phase2.dispatch_seconds;
  run.inputs = probe.size();
  run.outputs = phase2.outputs;
  run.checksum = phase2.checksum;
  return run;
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Rows entering the probe/scan phase (the cost model's n).
uint64_t ProbeInputs(const Profile& p) {
  if (p.source->kind == PlanNodeKind::kWalks) return p.source->walkers;
  return p.source->rel->size();
}

/// Calibration key of one (plan, shape) pair: the node-kind chain, the
/// shape name, and the build side's cardinality bucket, bucketed by the
/// probe cardinality like every other signature.  Distinct from op-type
/// signatures by construction (the "plan:" prefix), so plan priors and
/// governor priors never collide.
WorkloadSignature ShapeSignature(const Plan& plan, const Profile& p,
                                 PlanShape shape) {
  std::string name = "plan:";
  for (const PlanNode& node : plan.nodes()) {
    name += PlanNodeKindName(node.kind);
    name += ',';
  }
  name += PlanShapeName(shape);
  if (p.join != nullptr && p.join->kind == PlanNodeKind::kHashJoin) {
    name += ":b";
    name += std::to_string(
        WorkloadSignature::CardinalityBucket(p.join->rel->size()));
  }
  return WorkloadSignature::Make(name, ProbeInputs(p),
                                 static_cast<uint32_t>(sizeof(Tuple)));
}

/// Fraction of a two-phase shape's measured per-input cost treated as
/// selectivity-independent (the probe phase); the remainder (materialize +
/// aggregate) scales with the rows that survive the join.  First-order
/// split used to transfer a two-phase prior measured under one match-rate
/// regime to the regime the latest run observed (fig12's crossover is
/// exactly this: two-phase wins when the join filters hard).
constexpr double kTwoPhaseFixedFraction = 0.5;

/// Terminal rows per probe input observed on a finished run.  When the
/// plan aggregates, run.outputs counts groups, not rows — the group
/// summary's folded row count (`group_rows`, GroupSummary::rows) recovers
/// the rows that reached the terminal without any per-row
/// instrumentation.  Every shape reports the summary of the whole table,
/// so a caller's `group_into` that already held rows counts them the same
/// way whichever shape ran.  Negative when the run could not observe it.
double ObservedSelectivity(const RunStats& run, const AggregateTable* groups,
                           uint64_t group_rows, uint64_t inputs) {
  if (inputs == 0) return -1;
  const uint64_t rows = groups != nullptr ? group_rows : run.outputs;
  return static_cast<double>(rows) / static_cast<double>(inputs);
}

/// Record a plan-shape prior: total cycles over n probe rows, stored as
/// cycles-per-input under the shape signature, together with the
/// selectivity the measurement observed (negative = unobserved).
void StorePrior(Calibrator& calibrator, const WorkloadSignature& sig,
                double total_cycles, uint64_t n, double selectivity) {
  if (n == 0) return;
  CalibrationResult result;
  result.winner_cycles_per_input = total_cycles / static_cast<double>(n);
  result.survivors = {result.winner};
  result.observed_selectivity = selectivity;
  calibrator.Store(sig, result);
}

std::shared_ptr<ChainedHashTable> MakeTable(Executor& exec,
                                            const Profile& p) {
  ChainedHashTable::Options options;
  options.target_nodes_per_bucket = p.join->join.target_nodes_per_bucket;
  options.hash_kind = p.join->join.hash_kind;
  return std::make_shared<ChainedHashTable>(
      std::max<uint64_t>(1, p.join->rel->size()), options, &exec.pool());
}

}  // namespace

WorkloadSignature PlanShapeSignature(const Plan& plan, PlanShape shape) {
  const Profile p = Analyze(plan);
  return ShapeSignature(plan, p, shape);
}

// ---------------------------------------------------------------------------
// Shape enumeration
// ---------------------------------------------------------------------------

std::vector<PlanShape> PlanCompiler::Enumerate(const Plan& plan,
                                               const PlanOptions& options) {
  const Profile p = Analyze(plan);
  std::vector<PlanShape> shapes{PlanShape::kFused};
  // Two-phase's early-exit materialization (one emission per probe row)
  // keeps the intermediate no larger than the probe input.
  if (p.join != nullptr && p.groupby != nullptr && p.lean() &&
      p.unique_build()) {
    shapes.push_back(PlanShape::kTwoPhase);
  }
  if (options.shape == PlanShape::kAuto) return shapes;
  AMAC_CHECK_MSG(std::find(shapes.begin(), shapes.end(), options.shape) !=
                     shapes.end(),
                 "plan: pinned shape not applicable");
  return {options.shape};
}

// ---------------------------------------------------------------------------
// RunPlan
// ---------------------------------------------------------------------------

PlanResult RunPlan(Executor& exec, const Plan& plan,
                   const PlanOptions& options) {
  PlanResult result;
  const Profile p = Analyze(plan);
  const std::vector<PlanShape> shapes = PlanCompiler::Enumerate(plan, options);
  const uint64_t n = ProbeInputs(p);
  PlanStats pstats;
  pstats.active = true;
  pstats.candidates_considered = static_cast<uint32_t>(shapes.size());

  size_t chosen = 0;
  double estimated = 0;
  if (shapes.size() > 1) {
    Calibrator& calibrator = exec.calibrator();
    std::vector<CalibrationResult> priors;
    for (const PlanShape shape : shapes) {
      const auto prior =
          calibrator.PeekResult(ShapeSignature(plan, p, shape), n);
      if (!prior || prior->winner_cycles_per_input <= 0) break;
      priors.push_back(*prior);
    }
    if (priors.size() < shapes.size()) {
      // Exploration: run the first shape without a prior at full size; the
      // refresh below stores what it cost.
      chosen = priors.size();
    } else {
      // Current-regime selectivity estimate: the fused shape's entry
      // (index 0), which needs no rescale of its own.
      const double s_est = priors[0].observed_selectivity;
      double best_cost = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < shapes.size(); ++i) {
        double cost =
            priors[i].winner_cycles_per_input * static_cast<double>(n);
        if (shapes[i] == PlanShape::kTwoPhase) {
          // A two-phase prior is regime-specific: its materialize +
          // aggregate phases scale with the join's survivors.  Rescale
          // the per-survivor half from the selectivity the prior was
          // measured under to the selectivity the data shows now.
          const double s_stored = priors[i].observed_selectivity;
          if (s_est >= 0 && s_stored > 0) {
            cost *= kTwoPhaseFixedFraction +
                    (1 - kTwoPhaseFixedFraction) * (s_est / s_stored);
          }
        }
        if (cost < best_cost) {
          best_cost = cost;
          chosen = i;
        }
      }
      pstats.from_priors = true;
      estimated = best_cost;
    }
  }
  const PlanShape shape = shapes[chosen];
  pstats.shape = shape;
  pstats.estimated_cost_cycles = estimated;

  AggregateTable* groups = nullptr;
  if (p.groupby != nullptr) {
    if (p.groupby->group_into != nullptr) {
      groups = p.groupby->group_into;
    } else {
      result.groups = std::make_shared<AggregateTable>(
          std::max<uint64_t>(1, p.groupby->expected_groups),
          p.groupby->group_options, &exec.pool());
      groups = result.groups.get();
    }
  }
  const ChainedHashTable* table = nullptr;
  if (p.join != nullptr) {
    if (p.join->kind == PlanNodeKind::kLookup) {
      table = p.join->table;
    } else {
      result.table = MakeTable(exec, p);
      result.build = BuildPhase(exec, *p.join->rel, result.table.get(),
                                BuildMode::kChained);
      table = result.table.get();
    }
  }

  uint64_t group_rows = 0;
  if (shape == PlanShape::kTwoPhase) {
    result.run =
        RunTwoPhase(exec, *p.source->rel, *table, groups, &group_rows);
  } else {
    result.run = RunFused(exec, p, table, groups, &group_rows);
  }
  pstats.measured_cost_cycles =
      static_cast<double>(result.build.cycles + result.run.cycles);
  pstats.observed_selectivity =
      ObservedSelectivity(result.run, groups, group_rows, n);
  // Store the shape's full-run cost and selectivity as its prior: the
  // first cost of an explored shape, or a refresh of the chosen one, so
  // steady state tracks reality (including the match-rate regime).
  if (shapes.size() > 1) {
    StorePrior(exec.calibrator(), ShapeSignature(plan, p, shape),
               pstats.measured_cost_cycles, n, pstats.observed_selectivity);
  }
  result.run.plan = pstats;
  return result;
}

RunStats Executor::Run(const Plan& plan) { return RunPlan(*this, plan).run; }

// ---------------------------------------------------------------------------
// Scheduler submission
// ---------------------------------------------------------------------------

namespace {

template <typename PipelineT>
QueryTicket SubmitCompiled(QueryScheduler& scheduler,
                           const PipelineT& pipeline,
                           const QueryOptions& options,
                           AggregateTable* group_into) {
  auto sinks =
      std::make_shared<std::vector<RowSink>>(scheduler.SlotCount(options));
  return scheduler.SubmitOp(
      pipeline.size(),
      [sinks, pipeline](uint32_t slot) {
        return pipeline.Compile((*sinks)[slot]);
      },
      options, [sinks, group_into](RunStats* run) {
        if (group_into != nullptr) {
          // No team here: this runs on whichever thread drained the last
          // morsel, possibly a pool worker.
          const GroupSummary summary = group_into->Summarize();
          run->outputs = summary.groups;
          run->checksum = summary.checksum;
        } else {
          RowSink total;
          for (const RowSink& sink : *sinks) total.Merge(sink);
          run->outputs = total.rows();
          run->checksum = total.checksum();
        }
        run->plan.active = true;
        run->plan.shape = PlanShape::kFused;
        run->plan.candidates_considered = 1;
      });
}

template <typename PipelineT>
QueryTicket SubmitTail(QueryScheduler& scheduler, const PipelineT& pipeline,
                       const std::vector<RowFn>& fns,
                       const QueryOptions& options,
                       AggregateTable* group_into) {
  if (group_into != nullptr) {
    if (!fns.empty()) {
      return SubmitCompiled(
          scheduler,
          pipeline.Then(DynRowStage(fns)).Then(Aggregate<true>(*group_into)),
          options, group_into);
    }
    return SubmitCompiled(scheduler,
                          pipeline.Then(Aggregate<true>(*group_into)),
                          options, group_into);
  }
  if (!fns.empty()) {
    return SubmitCompiled(scheduler, pipeline.Then(DynRowStage(fns)),
                          options, nullptr);
  }
  return SubmitCompiled(scheduler, pipeline, options, nullptr);
}

}  // namespace

QueryTicket Submit(QueryScheduler& scheduler, const Plan& plan,
                   const QueryOptions& options) {
  const Profile p = Analyze(plan);
  AMAC_CHECK_MSG(p.join == nullptr || p.join->kind == PlanNodeKind::kLookup,
                 "Submit(Plan): hash-join plans build state; use RunPlan");
  AMAC_CHECK_MSG(p.groupby == nullptr || p.groupby->group_into != nullptr,
                 "Submit(Plan): scheduler group-bys aggregate into a "
                 "caller-owned table (GroupByInto)");
  AggregateTable* groups =
      p.groupby != nullptr ? p.groupby->group_into : nullptr;
  std::vector<RowFn> pre = CollectFns(p.pre);
  std::vector<RowFn> post = CollectFns(p.post);
  if (p.source->kind == PlanNodeKind::kWalks) {
    const PlanNode& w = *p.source;
    return SubmitTail(scheduler, Walks(*w.graph, w.walkers, w.hops, w.seed),
                      pre, options, groups);
  }
  auto base = From(DynScanSource(*p.source->rel, std::move(pre)));
  if (p.join != nullptr) {
    if (p.join->early_exit) {
      return SubmitTail(scheduler, base.Then(Probe<true>(*p.join->table)),
                        post, options, groups);
    }
    return SubmitTail(scheduler, base.Then(Probe<false>(*p.join->table)),
                      post, options, groups);
  }
  if (p.index != nullptr) {
    switch (p.index->kind) {
      case PlanNodeKind::kLookupBTree:
        return SubmitTail(scheduler, base.Then(LookupBTree(*p.index->btree)),
                          post, options, groups);
      case PlanNodeKind::kLookupBst:
        return SubmitTail(scheduler, base.Then(LookupBst(*p.index->bst)),
                          post, options, groups);
      default:
        return SubmitTail(scheduler,
                          base.Then(LookupSkipList(*p.index->skiplist)),
                          post, options, groups);
    }
  }
  return SubmitTail(scheduler, base, post, options, groups);
}

}  // namespace amac
