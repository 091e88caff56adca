// join-dram: closed-loop analytic query mix on DRAM-scale data.
//
// One client thread drives the production executor (kAdaptive, 4 threads:
// the client pumps in Wait() and the pool spawns 3) through RunPlan.  Each
// cycle runs three queries:
//   * join          — uniform full join; the plan builds the hash table
//                     (one-node chains);
//   * zipf_groupby  — probe into a prebuilt table whose build side is
//                     Zipf(1.0), fused into a group-by (long chains, and the
//                     plan's fused-vs-two-phase choice);
//   * bst           — BST index lookups (deep dependent chains).
// Every result is checked against an oracle: closed forms for the join and
// the BST lookups (dense unique keys make every match predictable), and a
// solo sequential run for the Zipf group-by.  The run fails when no
// structure is larger than the host's LLC.
//
// The traced run adds the five-rung probe ledger (hand Listing-1 AMAC ->
// amac::Run -> 1-thread Executor pipeline -> 1-slot Submit(plan) ->
// RunPlan on the production executor) over the same probe input, a sweep
// of every static policy over every query kind through amac::Run, and
// B+-tree and skip-list lookups of the BST's probe keys.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bst/bst.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common.h"
#include "common/cycle_timer.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "groupby/agg_table.h"
#include "groupby/groupby_ops.h"
#include "hashtable/chained_table.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "plan/plan.h"
#include "relation/relation.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace perfbench {
namespace {

using namespace amac;

constexpr int kNumKinds = 3;
constexpr const char* kKindNames[kNumKinds] = {"join", "zipf_groupby", "bst"};
constexpr uint32_t kInflight = 10;
/// GP/SPP stage provisioning per kind: one chain node per hash lookup,
/// the BST's depth for tree descents (as fig10 does).
constexpr uint32_t kStages[kNumKinds] = {1, 1, 24};
/// R = S = 2^23 tuples.  A hash table keeps 2 tuples per 64-byte bucket,
/// so the plan-built join table and the Zipf table each hold 256 MiB of
/// buckets: LLC-sized on a host with a 300 MiB LLC.  2^24 would double
/// every query and set-up, beyond the benchmark's run budget.
constexpr uint64_t kRows = uint64_t{1} << 23;
/// 2^23 BST keys: 512 MiB of 64-byte nodes, the structure that lies
/// beyond the LLC (the deep dependent chains of the paper's Fig 10).
constexpr uint64_t kBstKeys = uint64_t{1} << 23;
/// Lookups per BST query, uniform over its keys.
constexpr uint64_t kBstLookups = uint64_t{1} << 21;
/// The production executor: the client thread plus 3 pool threads.
constexpr uint32_t kThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr uint32_t kSetupReps = 5;
/// Untimed query cycles before the window, so page faults finish and the
/// calibrator and plan priors are stored.
constexpr uint32_t kWarmupCycles = 2;
/// Interleaved repetitions of the probe ledger; each rung reports the
/// median.
constexpr uint32_t kLedgerReps = 3;

struct Oracle {
  uint64_t outputs = 0;
  uint64_t checksum = 0;
};

/// RowSink's per-row checksum term (core/pipeline.h).
uint64_t RowTerm(int64_t key, int64_t payload) {
  return Mix64(static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull +
               static_cast<uint64_t>(payload));
}

/// CountChecksumSink's per-match term (join/sink.h).
uint64_t MatchTerm(uint64_t rid, int64_t payload) {
  return Mix64(rid * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(payload));
}

struct JoinData {
  Relation r, s;    ///< uniform full join, table built by the plan
  Relation rz, sz;  ///< Zipf(1.0) build side, permutation probe
  std::unique_ptr<ChainedHashTable> ztable;
  uint64_t zgroups = 0;  ///< distinct keys of rz
  Relation rb, pb;       ///< BST keys and lookups
  std::unique_ptr<BinarySearchTree> bst;
};

/// The BST that inserting `rb` in its order builds, for keys that are
/// exactly 1..|rb|.  That tree is the Cartesian tree of key order and
/// insertion order, so it is computed with a stack and then inserted
/// breadth-first, in key order within a level: each insert's walk then
/// follows the previous one's and stays in cache.  Inserting 2^23 keys in
/// rb's order misses the LLC on most steps and takes several seconds.
/// Nodes lie in memory breadth-first instead of in insertion order; a
/// lookup still touches one unrelated line per level.
std::unique_ptr<BinarySearchTree> BuildBstBreadthFirst(const Relation& rb) {
  const uint64_t n = rb.size();
  std::vector<uint32_t> order(n + 1);  // insertion index of each key
  for (uint64_t i = 0; i < n; ++i) {
    order[static_cast<uint64_t>(rb[i].key)] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> left(n + 1, 0), right(n + 1, 0), spine;
  for (uint32_t k = 1; k <= n; ++k) {
    uint32_t below = 0;
    while (!spine.empty() && order[spine.back()] > order[k]) {
      below = spine.back();
      spine.pop_back();
    }
    left[k] = below;
    if (!spine.empty()) right[spine.back()] = k;
    spine.push_back(k);
  }
  auto tree = std::make_unique<BinarySearchTree>(n);
  std::vector<uint32_t> queue;
  queue.reserve(n);
  queue.push_back(spine.front());
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t k = queue[head];
    tree->Insert(k, PayloadForKey(k));
    if (left[k] != 0) queue.push_back(left[k]);
    if (right[k] != 0) queue.push_back(right[k]);
  }
  return tree;
}

std::unique_ptr<JoinData> MakeData(uint64_t seed) {
  auto d = std::make_unique<JoinData>();
  d->r = MakeDenseUniqueRelation(kRows, SubSeed(seed, 1));
  d->s = MakeForeignKeyRelation(kRows, kRows, SubSeed(seed, 2));
  d->rz = MakeZipfRelation(kRows, kRows, 1.0, SubSeed(seed, 3));
  d->sz = MakeForeignKeyRelation(kRows, kRows, SubSeed(seed, 4));
  d->ztable =
      std::make_unique<ChainedHashTable>(kRows, ChainedHashTable::Options{});
  BuildTableUnsync(d->rz, d->ztable.get());
  std::vector<uint8_t> seen(kRows + 1, 0);
  for (const Tuple& t : d->rz) {
    d->zgroups += seen[static_cast<uint64_t>(t.key)] == 0 ? 1 : 0;
    seen[static_cast<uint64_t>(t.key)] = 1;
  }
  d->rb = MakeDenseUniqueRelation(kBstKeys, SubSeed(seed, 5));
  d->pb = MakeForeignKeyRelation(kBstLookups, kBstKeys, SubSeed(seed, 6));
  d->bst = BuildBstBreadthFirst(d->rb);
  return d;
}

Plan KindPlan(const JoinData& d, int kind) {
  switch (kind) {
    case 0: return Plan::Scan(d.s).HashJoin(d.r);
    case 1: return Plan::Scan(d.sz).Lookup(*d.ztable).GroupBy(d.zgroups);
    default: return Plan::Scan(d.pb).LookupBst(*d.bst);
  }
}

/// Rows a query of `kind` consumes: build + probe for the join.
uint64_t KindInputs(const JoinData& d, int kind) {
  switch (kind) {
    case 0: return d.r.size() + d.s.size();
    case 1: return d.sz.size();
    default: return d.pb.size();
  }
}

struct Oracles {
  Oracle kind[kNumKinds];  ///< RowSink form, what RunPlan reports
  Oracle probe_matches;    ///< CountChecksumSink form of s against r
  Oracle bst_matches;      ///< CountChecksumSink form of pb against the BST
};

Oracles ComputeOracles(const JoinData& d) {
  Oracles o;
  // Uniform FK join on dense unique keys: every probe row matches exactly
  // once, emitting (build payload, probe payload).
  for (uint64_t i = 0; i < d.s.size(); ++i) {
    const int64_t key = d.s[i].key;
    o.kind[0].checksum += RowTerm(PayloadForKey(key), d.s[i].payload);
    o.probe_matches.checksum += MatchTerm(i, PayloadForKey(key));
  }
  o.kind[0].outputs = o.probe_matches.outputs = d.s.size();
  // BST lookups: every key exists, emitting (key, payload).
  for (uint64_t i = 0; i < d.pb.size(); ++i) {
    const int64_t key = d.pb[i].key;
    o.kind[2].checksum += RowTerm(key, PayloadForKey(key));
    o.bst_matches.checksum += MatchTerm(i, PayloadForKey(key));
  }
  o.kind[2].outputs = o.bst_matches.outputs = d.pb.size();
  // Zipf group-by: first-match payloads depend on chain order, so run it
  // solo and sequentially (fused shape pinned: one candidate, no prefix
  // measurement).
  Executor solo(ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0},
                           1, 0});
  PlanOptions fused;
  fused.shape = PlanShape::kFused;
  const RunStats run = RunPlan(solo, KindPlan(d, 1), fused).run;
  o.kind[1] = {run.outputs, run.checksum};
  return o;
}

/// One executed query of the measured window.
struct QueryRecord {
  int kind = 0;
  double latency_s = 0;
  RunStats run;
  RunStats build;
};

/// Run one query on the production executor and check it.
QueryRecord RunQuery(Executor& exec, const JoinData& d, const Oracles& o,
                     int kind, Report* report, Tracer* tracer) {
  exec.set_params(SchedulerParams{kInflight, kStages[kind], 0});
  const Plan plan = KindPlan(d, kind);
  const double start_us = tracer->NowUs();
  const double start = NowSeconds();
  PlanResult result = RunPlan(exec, plan);
  QueryRecord rec;
  rec.kind = kind;
  rec.latency_s = NowSeconds() - start;
  rec.run = result.run;
  rec.build = result.build;
  ++report->attempted;
  if (result.run.outputs != o.kind[kind].outputs ||
      result.run.checksum != o.kind[kind].checksum) {
    report->Fail(std::string("join-dram: ") + kKindNames[kind] +
                 " diverged from its oracle (outputs " +
                 std::to_string(result.run.outputs) + " vs " +
                 std::to_string(o.kind[kind].outputs) + ")");
  }
  if (tracer->enabled()) {
    const uint64_t root =
        tracer->Record(std::string("plan.RunPlan.") + kKindNames[kind],
                       "join-dram", start_us, rec.latency_s * 1e6);
    double at = start_us;
    if (result.build.dispatch_seconds > 0) {
      tracer->Record("join.BuildPhase", "join", at,
                     result.build.dispatch_seconds * 1e6, root);
      at += result.build.dispatch_seconds * 1e6;
    }
    const double queue_s = result.run.dispatch_seconds - result.run.seconds;
    tracer->Record("server.queue", "server", at, queue_s * 1e6, root);
    tracer->Record("core.execute", "core", at + queue_s * 1e6,
                   result.run.seconds * 1e6, root);
  }
  return rec;
}

struct Window {
  std::vector<QueryRecord> queries;
  std::vector<double> cycle_rates;  ///< input rows per second of each cycle
  double seconds = 0;
  /// Median over cycles: a neighbour's burst on the shared host slows one
  /// cycle, not the metric.
  double Throughput() const { return Median(cycle_rates); }
};

/// Whole cycles of the three queries until `seconds` have passed.
Window MeasureWindow(Executor& exec, const JoinData& d, const Oracles& o,
                     double seconds, Report* report, Tracer* tracer) {
  Window w;
  const double start = NowSeconds();
  do {
    const double cycle_start = NowSeconds();
    uint64_t inputs = 0;
    for (int kind = 0; kind < kNumKinds; ++kind) {
      w.queries.push_back(RunQuery(exec, d, o, kind, report, tracer));
      inputs += KindInputs(d, kind);
    }
    w.cycle_rates.push_back(static_cast<double>(inputs) /
                            (NowSeconds() - cycle_start));
    w.seconds = NowSeconds() - start;
  } while (w.seconds < seconds);
  return w;
}

/// Core-cycles per input of a scheduler-path run (span x threads).
double CoreCyclesPerInput(const RunStats& run) {
  return run.inputs == 0 ? 0
                         : static_cast<double>(run.cycles) *
                               std::max(1u, run.threads) /
                               static_cast<double>(run.inputs);
}

void CheckMatches(const CountChecksumSink& sink, const Oracle& oracle,
                  const std::string& what, Report* report) {
  ++report->attempted;
  if (sink.matches() != oracle.outputs || sink.checksum() != oracle.checksum) {
    report->Fail("join-dram: " + what + " diverged from its oracle");
  }
}

void CheckRun(const RunStats& run, const Oracle& oracle,
              const std::string& what, Report* report) {
  ++report->attempted;
  if (run.outputs != oracle.outputs || run.checksum != oracle.checksum) {
    report->Fail("join-dram: " + what + " diverged from its oracle");
  }
}

/// The five-rung probe ledger over s probing a prebuilt uniform table:
/// core-cycles per input at each rung (median of interleaved reps).
void RunLedger(Executor& prod, const JoinData& d, const Oracles& o,
               double tsc_hz, uint32_t reps, Report* report,
               Tracer* tracer) {
  ChainedHashTable table(d.r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(d.r, &table);
  const uint64_t n = d.s.size();
  const SchedulerParams params{kInflight, 1, 0};
  Executor one(ExecConfig{ExecPolicy::kAmac, params, 1, 0});
  QueryScheduler solo(QuerySchedulerOptions{1, 1, AdmissionOrder::kFifo});
  QueryOptions slot1;
  slot1.policy = ExecPolicy::kAmac;
  slot1.params = params;
  slot1.max_slots = 1;
  constexpr int kRungs = 5;
  constexpr const char* kRungNames[kRungs] = {"hand", "run", "pipeline",
                                              "submit", "runplan"};
  std::vector<double> cpi[kRungs];
  const Plan lookup = Plan::Scan(d.s).Lookup(table);
  for (uint32_t rep = 0; rep < reps; ++rep) {
    for (int rung = 0; rung < kRungs; ++rung) {
      const double start_us = tracer->NowUs();
      double cycles = 0;
      switch (rung) {
        case 0: {
          CountChecksumSink sink;
          CycleTimer timer;
          ProbeAmac<true>(table, d.s, 0, n, kInflight, sink);
          cycles = static_cast<double>(timer.Elapsed());
          CheckMatches(sink, o.probe_matches, "ledger hand ProbeAmac", report);
          break;
        }
        case 1: {
          CountChecksumSink sink;
          ProbeOp<true, CountChecksumSink> op(table, d.s, sink);
          CycleTimer timer;
          amac::Run(ExecPolicy::kAmac, params, op, n);
          cycles = static_cast<double>(timer.Elapsed());
          CheckMatches(sink, o.probe_matches, "ledger amac::Run", report);
          break;
        }
        case 2: {
          const RunStats run = one.Run(Scan(d.s).Then(Probe(table)));
          cycles = static_cast<double>(run.cycles);
          CheckRun(run, o.kind[0], "ledger Executor pipeline", report);
          break;
        }
        case 3: {
          const double start = NowSeconds();
          const QueryStats q = solo.Wait(Submit(solo, lookup, slot1));
          cycles = (NowSeconds() - start) * tsc_hz;
          CheckRun(q.run, o.kind[0], "ledger Submit(plan)", report);
          break;
        }
        default: {
          prod.set_params(params);
          const double start = NowSeconds();
          const RunStats run = RunPlan(prod, lookup).run;
          cycles = (NowSeconds() - start) * tsc_hz * prod.num_threads();
          CheckRun(run, o.kind[0], "ledger RunPlan", report);
          break;
        }
      }
      cpi[rung].push_back(cycles / static_cast<double>(n));
      tracer->Record(std::string("ledger.") + kRungNames[rung], "core",
                     start_us, tracer->NowUs() - start_us);
    }
  }
  double med[kRungs];
  for (int rung = 0; rung < kRungs; ++rung) {
    med[rung] = Median(cpi[rung]);
    report->Add(std::string("core.ledger.") + kRungNames[rung] +
                    ".cycles_per_input",
                med[rung], "cycles");
  }
  report->Add("core.hand_gap", med[1] - med[0], "cycles");
  report->Add("core.pipeline.tax_cycles_per_input", med[2] - med[1],
              "cycles");
  report->Add("plan.tax_cycles_per_input", med[3] - med[2], "cycles");
  report->Add("server.production.tax_cycles_per_input", med[4] - med[3],
              "cycles");
}

/// Every static policy on every query kind through amac::Run, one thread;
/// returns the best core-cycles per input of each kind.
std::vector<double> RunEngineSweep(const JoinData& d, const Oracles& o,
                                   Report* report, Tracer* tracer) {
  ChainedHashTable table(d.r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(d.r, &table);
  std::vector<double> best(kNumKinds, 0);
  for (const ExecPolicy policy : kAllExecPolicies) {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      const SchedulerParams params{kInflight, kStages[kind], 0};
      const std::string label =
          std::string(ExecPolicyName(policy)) + "." + kKindNames[kind];
      const double start_us = tracer->NowUs();
      uint64_t cycles = 0;
      uint64_t inputs = 0;
      if (kind == 0) {
        CountChecksumSink sink;
        ProbeOp<true, CountChecksumSink> op(table, d.s, sink);
        CycleTimer timer;
        amac::Run(policy, params, op, d.s.size());
        cycles = timer.Elapsed();
        inputs = d.s.size();
        CheckMatches(sink, o.probe_matches, "sweep " + label, report);
      } else if (kind == 1) {
        AggregateTable groups(std::max<uint64_t>(1, d.zgroups),
                              AggregateTable::Options{});
        RowSink sink;
        auto op = Scan(d.sz)
                      .Then(Probe(*d.ztable))
                      .Then(Aggregate(groups))
                      .Compile(sink);
        CycleTimer timer;
        amac::Run(policy, params, op, d.sz.size());
        cycles = timer.Elapsed();
        inputs = d.sz.size();
        ++report->attempted;
        if (groups.CountGroups() != o.kind[1].outputs ||
            groups.Checksum() != o.kind[1].checksum) {
          report->Fail("join-dram: sweep " + label + " diverged");
        }
      } else {
        CountChecksumSink sink;
        BstSearchOp<CountChecksumSink> op(*d.bst, d.pb, sink);
        CycleTimer timer;
        amac::Run(policy, params, op, d.pb.size());
        cycles = timer.Elapsed();
        inputs = d.pb.size();
        CheckMatches(sink, o.bst_matches, "sweep " + label, report);
      }
      const double cpi =
          static_cast<double>(cycles) / static_cast<double>(inputs);
      report->Add("core.engine." + std::string(ExecPolicyName(policy)) +
                      ".cycles_per_input." + kKindNames[kind],
                  cpi, "cycles");
      if (best[kind] == 0 || cpi < best[kind]) best[kind] = cpi;
      tracer->Record("core.Run." + label, "core", start_us,
                     tracer->NowUs() - start_us);
    }
  }
  return best;
}

/// B+-tree and skip-list lookups of pb over rb's keys through amac::Run
/// (AMAC, one thread), checked against the BST lookups' closed-form oracle.
void RunIndexLookups(const JoinData& d, const Oracles& o, uint64_t seed,
                     Report* report, Tracer* tracer) {
  const SchedulerParams params{kInflight, 1, 0};
  const double lookups = static_cast<double>(d.pb.size());
  {
    const BTree tree(d.rb);
    CountChecksumSink sink;
    BTreeSearchOp<CountChecksumSink> op(tree, d.pb, sink);
    const double start_us = tracer->NowUs();
    CycleTimer timer;
    amac::Run(ExecPolicy::kAmac, params, op, d.pb.size());
    const double cycles = static_cast<double>(timer.Elapsed());
    tracer->Record("btree.Run.AMAC", "btree", start_us,
                   tracer->NowUs() - start_us);
    CheckMatches(sink, o.bst_matches, "B+-tree lookups", report);
    report->Add("btree.cycles_per_lookup", cycles / lookups, "cycles");
  }
  {
    // Inserted in key order: in rb's random order every insert's walk
    // misses the LLC, and 2^23 of them do not fit the traced run.  Tower
    // heights, so the list's shape, do not depend on the order, but nodes
    // then lie in key order in memory.
    SkipList list(d.rb.size());
    Rng heights(SubSeed(seed, 7));
    for (int64_t k = 1; k <= static_cast<int64_t>(d.rb.size()); ++k) {
      list.InsertUnsync(k, PayloadForKey(k), heights);
    }
    CountChecksumSink sink;
    SkipSearchOp<CountChecksumSink> op(list, d.pb, sink);
    const double start_us = tracer->NowUs();
    CycleTimer timer;
    amac::Run(ExecPolicy::kAmac, params, op, d.pb.size());
    const double cycles = static_cast<double>(timer.Elapsed());
    tracer->Record("skiplist.Run.AMAC", "skiplist", start_us,
                   tracer->NowUs() - start_us);
    CheckMatches(sink, o.bst_matches, "skip-list lookups", report);
    report->Add("skiplist.cycles_per_lookup", cycles / lookups, "cycles");
  }
}

/// Per-layer metrics read from the window's RunStats.
void ReportLayers(const Window& w, const std::vector<double>& best_static,
                  Report* report) {
  EngineStats engine;
  uint64_t morsels = 0, calib = 0, probe = 0, adaptive_phases = 0, hits = 0;
  uint64_t switches = 0, plan_multi = 0, plan_priors = 0;
  uint64_t shape_fused = 0, shape_two_phase = 0;
  std::vector<double> cost_error, build_s, queue_ms, execute_ms;
  std::vector<double> kind_cpi[kNumKinds];
  std::vector<double> build_cpt;
  double sum_execute = 0, sum_latency = 0;
  int chosen[kNumKinds] = {-1, -1, -1};
  for (const QueryRecord& q : w.queries) {
    for (const RunStats* phase : {&q.run, &q.build}) {
      if (phase->inputs == 0) continue;
      engine.Merge(phase->engine);
      morsels += phase->morsels;
      if (phase->adaptive.active) {
        ++adaptive_phases;
        hits += phase->adaptive.cache_hit ? 1 : 0;
        calib += phase->adaptive.calibration_morsels;
        probe += phase->adaptive.probe_morsels;
        switches += phase->adaptive.tuning_switches;
      }
    }
    const PlanStats& plan = q.run.plan;
    if (plan.candidates_considered > 1) {
      ++plan_multi;
      if (plan.from_priors) {
        ++plan_priors;
        if (plan.measured_cost_cycles > 0) {
          cost_error.push_back(plan.estimated_cost_cycles /
                                   plan.measured_cost_cycles -
                               1);
        }
      }
    }
    shape_fused += plan.shape == PlanShape::kFused ? 1 : 0;
    shape_two_phase += plan.shape == PlanShape::kTwoPhase ? 1 : 0;
    if (q.build.inputs > 0) {
      build_s.push_back(q.build.dispatch_seconds);
      build_cpt.push_back(CoreCyclesPerInput(q.build));
    }
    kind_cpi[q.kind].push_back(CoreCyclesPerInput(q.run));
    if (q.run.adaptive.active) {
      chosen[q.kind] =
          static_cast<int>(StaticExecPolicyIndex(q.run.adaptive.chosen_policy));
    }
    queue_ms.push_back((q.run.dispatch_seconds - q.run.seconds) * 1e3);
    execute_ms.push_back(q.run.seconds * 1e3);
    sum_execute += q.run.seconds + q.build.seconds;
    sum_latency += q.latency_s;
  }
  const double lookups = static_cast<double>(std::max<uint64_t>(1, engine.lookups));
  report->Add("core.steps_per_input", engine.steps / lookups, "ratio");
  report->Add("core.parks_per_input", engine.parks / lookups, "ratio");
  report->Add("core.retries_per_input", engine.retries / lookups, "ratio");
  report->Add("core.vec_fallback_share", engine.vec_fallbacks / lookups,
              "ratio");
  const double m = static_cast<double>(std::max<uint64_t>(1, morsels));
  report->Add("adaptive.calibration_morsel_share", calib / m, "ratio");
  report->Add("adaptive.probe_morsel_share", probe / m, "ratio");
  report->Add("adaptive.cache_hit_share",
              adaptive_phases ? static_cast<double>(hits) / adaptive_phases : 0,
              "ratio");
  report->Add("adaptive.tuning_switches", static_cast<double>(switches),
              "count");
  for (int kind = 0; kind < kNumKinds; ++kind) {
    report->Add(std::string("adaptive.chosen.") + kKindNames[kind],
                chosen[kind], "policy_index");
    const double adaptive_cpi = Median(kind_cpi[kind]);
    report->Add(std::string("adaptive.vs_best_static.") + kKindNames[kind],
                adaptive_cpi > 0 && !best_static.empty()
                    ? best_static[kind] / adaptive_cpi
                    : 0,
                "ratio");
  }
  report->Add("plan.from_priors_share",
              plan_multi ? static_cast<double>(plan_priors) / plan_multi : 0,
              "ratio");
  report->Add("plan.cost_error", Median(cost_error), "ratio");
  report->Add("plan.shape.fused", static_cast<double>(shape_fused), "count");
  report->Add("plan.shape.two-phase", static_cast<double>(shape_two_phase),
              "count");
  report->Add("plan.build_s", Median(build_s), "s");
  report->Add("join.build_cycles_per_tuple", Median(build_cpt), "cycles");
  report->Add("join.probe_cycles_per_lookup", Median(kind_cpi[0]), "cycles");
  report->Add("groupby.cycles_per_row", Median(kind_cpi[1]), "cycles");
  report->Add("bst.cycles_per_lookup", Median(kind_cpi[2]), "cycles");
  report->Add("server.queue_ms.p50", Percentile(queue_ms, 0.5), "ms");
  report->Add("server.queue_ms.p99", Percentile(queue_ms, 0.99), "ms");
  report->Add("server.execute_ms.p50", Percentile(execute_ms, 0.5), "ms");
  report->Add("server.overhead_share",
              sum_latency > 0 ? 1 - sum_execute / sum_latency : 0, "ratio");
}

}  // namespace

void RunJoinDram(const Args& args, Report* report, Tracer* tracer) {
  // Set-up: data generation + structure builds, several times; the median
  // is setup_s.  The previous copy is freed first so memory stays at one.
  std::unique_ptr<JoinData> data;
  std::vector<double> setup_times;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    data.reset();
    const double start = NowSeconds();
    data = MakeData(args.seed);
    setup_times.push_back(NowSeconds() - start);
  }
  const JoinData& d = *data;
  const Oracles oracles = ComputeOracles(d);
  const uint64_t table_bytes = d.ztable->num_buckets() * sizeof(BucketNode);
  const uint64_t bst_bytes = d.bst->size() * sizeof(BstNode);
  const uint64_t llc_bytes = LlcBytes();
  std::printf("join-dram: R=S=%llu tuples, zipf groups=%llu, bst=%llu keys; "
              "bytes: hash buckets=%llu bst=%llu llc=%llu\n",
              static_cast<unsigned long long>(kRows),
              static_cast<unsigned long long>(d.zgroups),
              static_cast<unsigned long long>(kBstKeys),
              static_cast<unsigned long long>(table_bytes),
              static_cast<unsigned long long>(bst_bytes),
              static_cast<unsigned long long>(llc_bytes));
  if (llc_bytes == 0) {
    std::printf("join-dram: LLC size unknown; working set not checked\n");
  } else if (std::max(table_bytes, bst_bytes) <= llc_bytes) {
    report->Fail("join-dram: no structure is larger than the LLC");
  }

  Executor prod(ExecConfig{ExecPolicy::kAdaptive,
                           SchedulerParams{kInflight, 1, 0}, kThreads, 0});
  // Untimed warmup: page faults, calibration, and plan priors, so the
  // window sees the steady state (repeated kinds hit the caches).
  Tracer off(false);
  for (uint32_t c = 0; c < kWarmupCycles; ++c) {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      RunQuery(prod, d, oracles, kind, report, &off);
    }
  }

  const Window w = MeasureWindow(prod, d, oracles, args.seconds, report, &off);
  // A window holds a few dozen queries of three kinds whose latencies sit
  // far apart, so the plain median flips between kinds with the query
  // count; the median over kinds of each kind's median is steady.  The
  // nearest-rank p99 of so few queries is the single slowest one, which a
  // neighbour's burst sets; p99 is instead the median over cycles of each
  // cycle's slowest query, the typical latency at the top of the spread.
  std::vector<double> kind_ms[kNumKinds], kind_medians, cycle_max_ms;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QueryRecord& q = w.queries[i];
    kind_ms[q.kind].push_back(q.latency_s * 1e3);
    if (i % kNumKinds == 0) cycle_max_ms.push_back(0);
    cycle_max_ms.back() = std::max(cycle_max_ms.back(), q.latency_s * 1e3);
  }
  for (const auto& sample : kind_ms) kind_medians.push_back(Median(sample));
  report->Add("throughput_ops_s", w.Throughput(), "1/s");
  report->Add("latency_p50_ms", Median(kind_medians), "ms");
  report->Add("latency_p99_ms", Median(cycle_max_ms), "ms");
  report->Add("setup_s", Median(setup_times), "s");
  std::printf("join-dram: %zu queries in %.2f s; Mrows/s by cycle:",
              w.queries.size(), w.seconds);
  for (const double rate : w.cycle_rates) std::printf(" %.2f", rate / 1e6);
  std::printf("\n");

  if (args.trace) {
    const Window traced =
        MeasureWindow(prod, d, oracles, args.seconds, report, tracer);
    report->Add("trace.overhead_share",
                traced.Throughput() > 0
                    ? w.Throughput() / traced.Throughput() - 1
                    : 0,
                "ratio");
    const double tsc_hz = EstimateTscHz();
    RunLedger(prod, d, oracles, tsc_hz, kLedgerReps, report, tracer);
    const std::vector<double> best = RunEngineSweep(d, oracles, report, tracer);
    RunIndexLookups(d, oracles, args.seed, report, tracer);
    ReportLayers(traced, best, report);
    const ServingStats serving = prod.scheduler().serving_stats();
    report->Add("server.rejected", static_cast<double>(serving.rejected),
                "count");
    report->Add("server.shed", static_cast<double>(serving.shed), "count");
    report->Add("server.deadline_missed",
                static_cast<double>(serving.deadline_missed), "count");
  }
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
