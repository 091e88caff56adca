// Declarative query-plan layer above the fused Pipeline API.
//
// A Pipeline (core/pipeline.h) is a *physical* artifact: the caller has
// already decided to fuse the whole chain.  The paper's fig12 result is
// exactly that this structural choice matters — fused wins at high match
// rates, probe-materialize + aggregate wins when the join filters hard.
//
// `Plan` describes the query as logical intent only:
//
//   Plan plan = Plan::Scan(s)
//                   .Lookup(table)               // no fusion chosen
//                   .GroupBy(num_groups);
//   PlanResult res = RunPlan(exec, plan);
//   res.run.plan.shape;                          // what the optimizer did
//
// `PlanCompiler::Enumerate` expands a plan into its equivalent physical
// shapes: fused, plus two-phase where a join feeds a group-by.  `RunPlan`
// runs exactly one shape per query.  While an enumerated shape has no
// prior in the Executor's Calibrator (cycles-per-input keyed by a
// plan-shape WorkloadSignature), the query explores the first such shape
// at full size and stores its cost; once every shape has a prior, it
// picks the cheapest by a cost model over them.  Every enumerated shape
// produces bitwise-identical outputs/checksums (pinned by tests/plan/), so
// the choice is purely a performance decision.
//
// Entry points: `RunPlan` (full result: build stats + owned structures),
// `Executor::Run(const Plan&)` (just the run stats), and
// `Submit(QueryScheduler&, const Plan&, ...)` for prebuilt-structure plans
// on the concurrent serving path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adaptive/signature.h"
#include "core/pipeline.h"
#include "groupby/agg_table.h"
#include "hashtable/chained_table.h"
#include "join/hash_join.h"
#include "relation/relation.h"

namespace amac {

class BTree;
class BinarySearchTree;
class SkipList;
class CsrGraph;

/// The logical operator vocabulary.  Sources (kScan / kWalks) start a
/// plan; kGroupBy is terminal; everything else chains.
enum class PlanNodeKind : uint8_t {
  kScan,        ///< emit every tuple of a relation
  kWalks,       ///< emit every vertex visit of N random walks
  kFilter,      ///< drop rows failing a predicate
  kMap,         ///< rewrite each row
  kHashJoin,    ///< join against a relation (table built by the plan)
  kLookup,      ///< join against a prebuilt ChainedHashTable
  kLookupBTree, ///< index lookup: row.key -> (key, payload)
  kLookupBst,
  kLookupSkip,
  kGroupBy,     ///< aggregate rows into an AggregateTable (terminal)
};

const char* PlanNodeKindName(PlanNodeKind kind);

/// One logical operator.  Plain data: non-owning pointers to the caller's
/// structures (which must outlive execution) plus per-kind parameters.
struct PlanNode {
  PlanNodeKind kind = PlanNodeKind::kScan;
  /// kScan: the scanned input; kHashJoin: the join relation.
  const Relation* rel = nullptr;
  std::function<bool(const Tuple&)> pred;  ///< kFilter
  std::function<Tuple(const Tuple&)> map;  ///< kMap
  JoinOptions join;                        ///< kHashJoin
  const ChainedHashTable* table = nullptr; ///< kLookup
  bool early_exit = true;                  ///< kLookup
  const BTree* btree = nullptr;
  const BinarySearchTree* bst = nullptr;
  const SkipList* skiplist = nullptr;
  const CsrGraph* graph = nullptr;         ///< kWalks
  uint64_t walkers = 0;                    ///< kWalks
  uint32_t hops = 0;
  uint64_t seed = 0;
  uint64_t expected_groups = 0;            ///< kGroupBy (plan-owned table)
  AggregateTable::Options group_options;   ///< kGroupBy
  AggregateTable* group_into = nullptr;    ///< kGroupBy: caller's table
};

/// Execution-time knobs: pin the shape (kAuto = let the optimizer
/// choose).
struct PlanOptions {
  PlanShape shape = PlanShape::kAuto;
};

/// A value-semantic logical plan, built fluently:
///
///   Plan::Scan(s).Filter(f).HashJoin(r).GroupBy(1024)
///
/// Builder methods validate chaining order via AMAC_CHECK (a plan is
/// program text, not user input).  Copying a Plan copies node descriptors
/// only; all data structures stay shared and non-owned.
class Plan {
 public:
  /// ---- sources -------------------------------------------------------
  static Plan Scan(const Relation& rel);
  static Plan Walks(const CsrGraph& graph, uint64_t num_walkers,
                    uint32_t hops, uint64_t seed);

  /// ---- chained operators (each returns the extended plan) ------------
  Plan Filter(std::function<bool(const Tuple&)> pred) const;
  Plan Map(std::function<Tuple(const Tuple&)> fn) const;
  Plan HashJoin(const Relation& rel, const JoinOptions& options = {}) const;
  Plan Lookup(const ChainedHashTable& table, bool early_exit = true) const;
  Plan LookupBTree(const BTree& tree) const;
  Plan LookupBst(const BinarySearchTree& tree) const;
  Plan LookupSkipList(const SkipList& list) const;
  /// Terminal aggregation into a plan-owned table sized for
  /// `expected_groups` (returned via PlanResult::groups).
  Plan GroupBy(uint64_t expected_groups,
               AggregateTable::Options options = {}) const;
  /// Terminal aggregation into the caller's (empty) table.
  Plan GroupByInto(AggregateTable* table) const;

  const std::vector<PlanNode>& nodes() const { return nodes_; }

 private:
  Plan Append(PlanNode node) const;

  std::vector<PlanNode> nodes_;
};

/// Enumerates the physically equivalent shapes of a plan: {kFused}, or
/// {kFused, kTwoPhase} for lean Scan -> HashJoin/Lookup -> GroupBy chains
/// (no filters/maps) with unique build keys (early_exit), the only
/// chains where both are provably result-identical.  A PlanOptions::shape
/// pin filters the list; a pin that matches no valid shape is a
/// programming error (AMAC_CHECK).
class PlanCompiler {
 public:
  static std::vector<PlanShape> Enumerate(const Plan& plan,
                                          const PlanOptions& options);
};

/// The calibration-cache key of one (plan, shape) pair — the signature
/// RunPlan stores shape priors under.  Exposed so tests and offline
/// tooling can seed or inspect plan-level priors without re-deriving the
/// naming scheme.
WorkloadSignature PlanShapeSignature(const Plan& plan, PlanShape shape);

/// Everything a plan execution produced.  `run` is the main phase
/// (probe/scan/aggregate) with run.plan filled in; `build` is the
/// plan-built hash table's build phase (zeroed otherwise).  The shared
/// pointers keep plan-owned structures alive for inspection.
struct PlanResult {
  RunStats run;
  RunStats build;
  std::shared_ptr<ChainedHashTable> table;  ///< plan-built join table
  std::shared_ptr<AggregateTable> groups;   ///< plan-owned group-by table

  uint64_t TotalCycles() const { return build.cycles + run.cycles; }
};

/// Execute `plan` on `exec` in one shape: the first enumerated shape with
/// no prior in exec.calibrator(), else the cheapest by its prior
/// (run.plan.from_priors).  When the plan has more than one candidate, the
/// shape that ran stores its full-run cost and selectivity as its prior.
PlanResult RunPlan(Executor& exec, const Plan& plan,
                   const PlanOptions& options = {});

/// Submit a plan to a QueryScheduler as one concurrent query.  Supports
/// the prebuilt-structure subset (scan/walks sources, filters,
/// maps, prebuilt-table and index lookups, GroupByInto): serving queries
/// must not block the submitting thread on a table build, and structural
/// enumeration needs an Executor — plans that build state run via
/// RunPlan.  The fused default shape is submitted unconditionally.
QueryTicket Submit(QueryScheduler& scheduler, const Plan& plan,
                   const QueryOptions& options = {});

}  // namespace amac
