// Declarative query-plan layer above the fused Pipeline API.
//
// A Pipeline (core/pipeline.h) is a *physical* artifact: the caller has
// already decided to fuse the whole chain, which side of a join builds the
// hash table, and how that build partitions.  The paper's fig12 result is
// exactly that those structural choices matter — fused wins at high match
// rates, probe-materialize + aggregate wins when the join filters hard —
// yet nothing in the repo could make the choice; every bench hard-coded
// one shape.
//
// `Plan` describes the query as logical intent only:
//
//   Plan plan = Plan::Scan(s)
//                   .HashJoin(r)                 // no build side chosen
//                   .GroupBy(num_groups);        // no fusion chosen
//   PlanResult res = RunPlan(exec, plan);
//   res.run.plan.shape;                          // what the optimizer did
//
// `PlanCompiler::Enumerate` expands a plan into its equivalent physical
// shapes (fused vs two-phase, build side, build partitioning);
// `RunPlan` picks among them with a cost model over the Executor's
// Calibrator priors (cycles-per-input keyed by a plan-shape
// WorkloadSignature), falling back to measuring a prefix of the real input
// under every candidate — the plan-level analogue of the adaptive layer's
// successive-halving calibration — when no priors exist.  Every enumerated
// shape produces bitwise-identical outputs/checksums (pinned by
// tests/plan/), so the choice is purely a performance decision.
//
// Entry points: `RunPlan` (full result: build stats + owned structures),
// `Executor::Run(const Plan&)` (just the run stats), and
// `Submit(QueryScheduler&, const Plan&, ...)` for prebuilt-structure plans
// on the concurrent serving path.  `RunHashJoin` (join/hash_join.h) is now
// a thin adapter pinning the legacy shape on this layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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

/// What the terminal rows of a non-group-by plan fold into.
enum class PlanTerminal : uint8_t {
  /// RowSink discipline: count + checksum over emitted (key, payload) rows.
  kCollect,
  /// Legacy join accounting: ProbePhase's (probe rid, build payload)
  /// checksum.  Only valid for Scan -> HashJoin/Lookup plans with no
  /// filters or maps; pins the build side (the rid is probe-relative), so
  /// no structural alternatives are enumerated.  RunHashJoin uses this.
  kMatches,
};

/// Execution-time knobs: pin any structural dimension (kAuto = let the
/// optimizer choose) and pick the terminal accounting.
struct PlanOptions {
  PlanShape shape = PlanShape::kAuto;
  PlanBuildSide build_side = PlanBuildSide::kAuto;
  PlanBuildMode build_mode = PlanBuildMode::kAuto;
  PlanTerminal terminal = PlanTerminal::kCollect;
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

/// One physical alternative for a plan: every structural dimension pinned.
struct PhysicalShape {
  PlanShape pipeline = PlanShape::kFused;
  PlanBuildSide build_side = PlanBuildSide::kJoinRel;
  PlanBuildMode build_mode = PlanBuildMode::kAuto;

  /// Stable display / signature name, e.g. "fused/join-rel/partitioned".
  std::string Name() const;
};

/// Enumerates the physically equivalent shapes of a plan.  The result is
/// never empty; index 0 is the default (fused, join-rel build, auto
/// partitioning).  Alternatives appear only where they are provably
/// result-identical:
///   * two-phase — lean Scan -> HashJoin/Lookup -> GroupBy chains (no
///     filters/maps) with unique build keys (early_exit);
///   * build-side flip — plan-built hash joins under the same leanness
///     (the flipped probe re-canonicalizes rows, and unique join-rel keys
///     make early-exit and full enumeration emit the same pair set);
///   * build partitioning — chained (latched) vs pre-partitioned, for
///     plan-built tables on multi-threaded executors.
/// PlanOptions pins filter the list; a pin that matches no valid shape is
/// a programming error (AMAC_CHECK).
class PlanCompiler {
 public:
  static std::vector<PhysicalShape> Enumerate(const Plan& plan,
                                              const PlanOptions& options,
                                              uint32_t num_threads);
};

/// The calibration-cache key of one (plan, shape) pair — the signature
/// RunPlan stores shape priors under.  Exposed so tests and offline
/// tooling can seed or inspect plan-level priors without re-deriving the
/// naming scheme.
WorkloadSignature PlanShapeSignature(const Plan& plan,
                                     const PhysicalShape& shape);

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

/// Execute `plan` on `exec`: enumerate shapes, choose by Calibrator priors
/// (or the measure fallback), run the winner.  Priors learned here are
/// stored back into exec.calibrator(), so repeated plans skip straight to
/// the costed choice (run.plan.from_priors).
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
