// Serving extension: mixed-workload throughput and tail latency of the
// shared-pool QueryScheduler as concurrent clients scale.
//
// This is the repo's first latency-under-load scenario.  C closed-loop
// clients each submit a stream of mixed queries — hash-join probe,
// group-by, btree/bst/skiplist point lookups, graph random walks, and the
// fused join->group-by — against shared read-only structures, all
// multiplexed over ONE QueryScheduler (one ThreadPool) with admission
// control.  Every completed query is verified against a solo sequential
// oracle (schedule-independent checksums), so the bench doubles as a
// concurrency self-check: any divergence, zero throughput, or zero
// latency percentile exits nonzero.
//
//   --quick            CI smoke: scale 2^12, 8 clients x all 5 policies
//   --workers=N        scheduler pool size (default: hardware threads)
//   --max_inflight=N   admission cap (0 = unbounded; default 2x workers)
//   --queries=N        queries per client
//
// --open-loop switches to the OPEN-loop scenario instead: a LoadGenerator
// submits single-morsel point queries on a Poisson/bursty/diurnal arrival
// schedule regardless of completions, sweeping offered load through the
// capacity planner's predicted knee.  Each offered rate runs twice — a
// queue-forever baseline vs SLO-aware admission (EDF + bounded pending +
// expiry shedding) — and the gates require (a) zero oracle divergence,
// (b) ServingStats outcome counters exactly matching per-ticket tallies,
// (c) past predicted capacity, SLO-aware goodput-under-SLO strictly above
// the baseline's, and (d) predicted capacity within 30% of measured for
// at least two policies.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "bst/bst.h"
#include "btree/btree.h"
#include "btree/btree_ops.h"
#include "common/cycle_timer.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/zipf.h"
#include "core/ops.h"
#include "core/pipeline.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby_ops.h"
#include "join/join_ops.h"
#include "server/capacity_planner.h"
#include "server/load_gen.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace amac::bench {
namespace {

/// Shared read-only structures every query kind runs against, plus the
/// solo-sequential oracle results each concurrent run must reproduce.
struct Workload {
  Relation r;          ///< build side
  Relation s;          ///< probe / fused input
  Relation gb_input;   ///< group-by input
  Relation idx_probe;  ///< index point-lookup keys (hits and misses)
  std::unique_ptr<ChainedHashTable> table;
  std::unique_ptr<BTree> btree;
  std::unique_ptr<BinarySearchTree> bst;
  std::unique_ptr<SkipList> slist;
  std::unique_ptr<CsrGraph> graph;
  uint64_t group_capacity = 0;
  uint64_t walkers = 0;
  uint32_t hops = 8;

  struct Oracle {
    uint64_t outputs = 0;
    uint64_t checksum = 0;
  };
  // One oracle per query kind (indexes match kQueryKinds).
  std::vector<Oracle> oracles;
};

constexpr const char* kQueryKinds[] = {
    "join-probe", "group-by", "btree", "bst", "skiplist", "walks", "fused"};
constexpr int kNumKinds = 7;

Workload PrepareWorkload(uint64_t scale) {
  Workload w;
  w.r = MakeDenseUniqueRelation(scale, 901);
  w.s = MakeForeignKeyRelation(scale, scale, 902);
  w.gb_input = MakeZipfRelation(scale, scale / 8 + 1, 0.6, 903);
  w.idx_probe = MakeZipfRelation(scale, 2 * scale, 0.3, 904);
  w.table = std::make_unique<ChainedHashTable>(scale,
                                               ChainedHashTable::Options{});
  BuildTableUnsync(w.r, w.table.get());
  w.btree = std::make_unique<BTree>(w.r);
  w.bst = std::make_unique<BinarySearchTree>(BuildBst(w.r));
  w.slist = BuildSkipList(w.r, 905);
  w.graph = MakeWalkGraph(scale, 906);
  w.walkers = scale / 4;
  w.group_capacity = scale + 1;
  return w;
}

/// A submitted query plus how to verify its result against the oracle.
struct PendingQuery {
  QueryTicket ticket;
  int kind = 0;
  /// Returns false on divergence from the solo oracle.
  std::function<bool(const QueryStats&)> verify;
};

/// The declarative plan for query `kind`.  Aggregating kinds (group-by and
/// fused, indexes 1 and 6) write into `agg`, which must outlive execution;
/// the other kinds ignore it.
Plan KindPlan(const Workload& w, int kind, AggregateTable* agg) {
  switch (kind) {
    case 0: return Plan::Scan(w.s).Lookup(*w.table);
    case 1: return Plan::Scan(w.gb_input).GroupByInto(agg);
    case 2: return Plan::Scan(w.idx_probe).LookupBTree(*w.btree);
    case 3: return Plan::Scan(w.idx_probe).LookupBst(*w.bst);
    case 4: return Plan::Scan(w.idx_probe).LookupSkipList(*w.slist);
    case 5: return Plan::Walks(*w.graph, w.walkers, w.hops, 907);
    default: return Plan::Scan(w.s).Lookup(*w.table).GroupByInto(agg);
  }
}

bool KindAggregates(int kind) { return kind == 1 || kind >= 6; }

/// Submit one query of `kind` to the scheduler.  Aggregating kinds carry a
/// per-query AggregateTable kept alive by the verify closure.
PendingQuery SubmitKind(QueryScheduler& sched, const Workload& w, int kind,
                        const QueryOptions& options) {
  PendingQuery pending;
  pending.kind = kind;
  const Workload::Oracle& oracle = w.oracles[static_cast<size_t>(kind)];
  if (KindAggregates(kind)) {
    auto agg = std::make_shared<AggregateTable>(w.group_capacity,
                                                AggregateTable::Options{});
    pending.ticket = Submit(sched, KindPlan(w, kind, agg.get()), options);
    pending.verify = [agg, oracle](const QueryStats&) {
      return agg->CountGroups() == oracle.outputs &&
             agg->Checksum() == oracle.checksum;
    };
  } else {
    pending.ticket = Submit(sched, KindPlan(w, kind, nullptr), options);
    pending.verify = [oracle](const QueryStats& q) {
      return q.run.outputs == oracle.outputs &&
             q.run.checksum == oracle.checksum;
    };
  }
  return pending;
}

/// Record every kind's solo sequential run: the schedule-independent
/// result the concurrent runs must reproduce.  Aggregating plans report
/// their table's groups/checksum through RunStats, so one loop covers all
/// seven kinds.
void ComputeOracles(Workload* w) {
  w->oracles.assign(kNumKinds, {});
  for (int kind = 0; kind < kNumKinds; ++kind) {
    AggregateTable agg(w->group_capacity, AggregateTable::Options{});
    const RunStats run = SoloRun(KindPlan(*w, kind, &agg));
    w->oracles[static_cast<size_t>(kind)] = {run.outputs, run.checksum};
  }
}

struct LoadPoint {
  uint32_t clients = 0;
  uint64_t queries = 0;
  double seconds = 0;
  ServingStats serving;
  uint64_t divergent = 0;
};

/// Closed-loop load: `clients` threads each submit+wait `per_client` mixed
/// queries against one shared scheduler.
LoadPoint RunLoad(const Workload& w, ExecPolicy policy, uint32_t workers,
                  uint32_t max_inflight, uint32_t clients,
                  uint32_t per_client, uint32_t inflight) {
  QueryScheduler sched(
      QuerySchedulerOptions{workers, max_inflight, AdmissionOrder::kFifo});
  QueryOptions options;
  options.policy = policy;
  options.params = SchedulerParams{inflight, 2, 0};
  std::atomic<uint64_t> divergent{0};
  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint32_t i = 0; i < per_client; ++i) {
        const int kind = static_cast<int>((c + i) % kNumKinds);
        PendingQuery pending = SubmitKind(sched, w, kind, options);
        const QueryStats q = sched.Wait(pending.ticket);
        if (!pending.verify(q)) divergent.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadPoint point;
  point.clients = clients;
  point.queries = static_cast<uint64_t>(clients) * per_client;
  point.seconds = wall.ElapsedSeconds();
  point.serving = sched.serving_stats();
  point.divergent = divergent.load();
  return point;
}

bool ReportPoint(TablePrinter* table, const LoadPoint& point) {
  const double qps =
      point.seconds > 0 ? static_cast<double>(point.queries) / point.seconds
                        : 0;
  table->AddRow(
      {std::to_string(point.clients), TablePrinter::Fmt(qps, 1),
       TablePrinter::Fmt(point.serving.p50_latency_seconds * 1e3, 2),
       TablePrinter::Fmt(point.serving.p95_latency_seconds * 1e3, 2),
       TablePrinter::Fmt(point.serving.p99_latency_seconds * 1e3, 2),
       TablePrinter::Fmt(point.serving.total_queue_seconds /
                             std::max<uint64_t>(1, point.serving.completed) *
                             1e3,
                         2)});
  bool ok = true;
  if (point.divergent > 0) {
    std::printf("ERROR: %llu queries diverged from the solo oracle at %u "
                "clients\n",
                static_cast<unsigned long long>(point.divergent),
                point.clients);
    ok = false;
  }
  if (point.serving.completed != point.queries) {
    std::printf("ERROR: scheduler completed %llu of %llu queries\n",
                static_cast<unsigned long long>(point.serving.completed),
                static_cast<unsigned long long>(point.queries));
    ok = false;
  }
  if (qps <= 0 || point.serving.p50_latency_seconds <= 0 ||
      point.serving.p95_latency_seconds <= 0 ||
      point.serving.p99_latency_seconds <= 0) {
    std::printf("ERROR: zero throughput or latency percentile at %u "
                "clients\n",
                point.clients);
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Open-loop scenario (--open-loop)
// ---------------------------------------------------------------------------

/// Single-morsel point-query kinds (indexes into kQueryKinds).  The
/// aggregating kinds are excluded: a per-query AggregateTable across tens
/// of thousands of open-loop tickets would dominate memory, and the
/// capacity model wants queries that are one morsel of pure lookup work.
constexpr int kOpenLoopKinds[] = {0, 2, 3, 4};  // join-probe, btree, bst,
                                                // skiplist
constexpr int kNumOpenLoopKinds = 4;
/// Popularity windows: each query targets one of these pre-built input
/// relations, picked by Zipf rank — the key-popularity skew of a real
/// serving mix without per-query input construction.
constexpr uint32_t kNumWindows = 8;
constexpr double kWindowZipfTheta = 0.9;

struct OpenLoopWorkload {
  uint64_t scale = 0;
  Relation r;  ///< shared build side
  std::unique_ptr<ChainedHashTable> table;
  std::unique_ptr<BTree> btree;
  std::unique_ptr<BinarySearchTree> bst;
  std::unique_ptr<SkipList> slist;
  std::vector<Relation> s;          ///< per-window join-probe input
  std::vector<Relation> idx_probe;  ///< per-window index-lookup keys
  /// Solo-sequential oracle per (open-loop kind index, window).
  Workload::Oracle oracles[kNumOpenLoopKinds][kNumWindows];
};

QueryTicket SubmitOpenLoopKind(QueryScheduler& sched,
                               const OpenLoopWorkload& w, int kind_index,
                               uint32_t window, const QueryOptions& options) {
  switch (kOpenLoopKinds[kind_index]) {
    case 0:
      return Submit(sched, Plan::Scan(w.s[window]).Lookup(*w.table),
                    options);
    case 2:
      return Submit(
          sched, Plan::Scan(w.idx_probe[window]).LookupBTree(*w.btree),
          options);
    case 3:
      return Submit(sched, Plan::Scan(w.idx_probe[window]).LookupBst(*w.bst),
                    options);
    default:
      return Submit(
          sched, Plan::Scan(w.idx_probe[window]).LookupSkipList(*w.slist),
          options);
  }
}

/// Per-query execution shape of the open-loop scenario: ONE morsel, ONE
/// slot, so the scheduler serves it like an M/G/c queue and the capacity
/// model has a chance of being right.
QueryOptions OpenLoopQueryOptions(const OpenLoopWorkload& w,
                                  ExecPolicy policy, uint32_t inflight) {
  QueryOptions options;
  options.policy = policy;
  options.params = SchedulerParams{inflight, 2, 0};
  options.morsel_size = w.scale;
  options.max_slots = 1;
  return options;
}

OpenLoopWorkload PrepareOpenLoopWorkload(uint64_t scale) {
  OpenLoopWorkload w;
  w.scale = scale;
  w.r = MakeDenseUniqueRelation(scale, 901);
  w.table =
      std::make_unique<ChainedHashTable>(scale, ChainedHashTable::Options{});
  BuildTableUnsync(w.r, w.table.get());
  w.btree = std::make_unique<BTree>(w.r);
  w.bst = std::make_unique<BinarySearchTree>(BuildBst(w.r));
  w.slist = BuildSkipList(w.r, 905);
  for (uint32_t win = 0; win < kNumWindows; ++win) {
    w.s.push_back(MakeForeignKeyRelation(scale, scale, 910 + win));
    w.idx_probe.push_back(MakeZipfRelation(scale, 2 * scale, 0.3, 930 + win));
  }
  // Solo-sequential oracles for every (kind, window) combination.
  QueryScheduler solo(QuerySchedulerOptions{1, 1, AdmissionOrder::kFifo});
  QueryOptions options =
      OpenLoopQueryOptions(w, ExecPolicy::kSequential, 1);
  options.params = SchedulerParams{1, 1, 0};
  for (int k = 0; k < kNumOpenLoopKinds; ++k) {
    for (uint32_t win = 0; win < kNumWindows; ++win) {
      const QueryStats q =
          solo.Wait(SubmitOpenLoopKind(solo, w, k, win, options));
      w.oracles[k][win] = {q.run.outputs, q.run.checksum};
    }
  }
  return w;
}

/// What the capacity planner predicts for one policy, plus the SLO the
/// sweep will serve under (a generous multiple of E[S], so below the knee
/// nearly everything meets it and past the knee only queueing kills it).
struct PolicyPlan {
  CapacityEstimate estimate;
  double slo_seconds = 0;
};

/// Measure cycles-per-input calibrator-style (solo runs of the real
/// queries) and turn it into a capacity prediction for `serve_workers`.
PolicyPlan MeasurePolicyPlan(const OpenLoopWorkload& w, ExecPolicy policy,
                             uint32_t serve_workers, uint32_t inflight,
                             double tsc_hz, uint32_t reps) {
  QueryScheduler solo(QuerySchedulerOptions{1, 1, AdmissionOrder::kFifo});
  const QueryOptions options = OpenLoopQueryOptions(w, policy, inflight);
  // One throwaway pass first: at bench scales the tables are cache
  // resident, so a cold first rep would inflate E[S] (and deflate the
  // predicted capacity) by the one-time miss cost.
  for (int k = 0; k < kNumOpenLoopKinds; ++k) {
    (void)solo.Wait(SubmitOpenLoopKind(solo, w, k, 0, options));
  }
  double cpi_sum = 0;
  uint32_t n = 0;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    for (int k = 0; k < kNumOpenLoopKinds; ++k) {
      const QueryStats q = solo.Wait(
          SubmitOpenLoopKind(solo, w, k, rep % kNumWindows, options));
      cpi_sum += q.run.CyclesPerInput();
      ++n;
    }
  }
  PolicyPlan plan;
  plan.estimate = CapacityPlanner::FromCyclesPerInput(
      policy, cpi_sum / n, w.scale, serve_workers, tsc_hz);
  plan.slo_seconds = 20 * plan.estimate.service_seconds;
  return plan;
}

struct OpenLoopResult {
  LoadGenReport gen;
  ServingStats stats;
  uint64_t divergent = 0;
  // Per-ticket tallies, independently recomputed from Wait() results;
  // must match the ServingStats counters exactly.
  uint64_t served = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t goodput = 0;
  double serve_seconds = 0;  ///< submit through drain, the full window
  double goodput_qps = 0;    ///< goodput over the full serving window
};

/// One open-loop run: drive `offered_qps` arrivals for `duration` seconds
/// against a fresh scheduler, then drain and verify every served ticket.
OpenLoopResult RunOpenLoopPoint(const OpenLoopWorkload& w,
                                const PolicyPlan& plan, uint32_t workers,
                                uint32_t inflight, bool slo_aware,
                                ArrivalKind arrival, double offered_qps,
                                double duration, uint64_t seed) {
  const uint32_t serve = workers > 1 ? workers - 1 : 1;
  QuerySchedulerOptions sopts;
  sopts.num_workers = workers;
  sopts.max_inflight_queries = serve;
  if (slo_aware) {
    sopts.order = AdmissionOrder::kDeadline;
    sopts.shed_expired = true;
    // Bound pending so the worst admitted queue wait roughly fits the
    // SLO: serve drains c queries per E[S], so 16c pending ~= 16 E[S].
    sopts.max_pending = 16 * serve;
  }
  struct Issued {
    QueryTicket ticket;
    int kind_index;
    uint32_t window;
  };
  std::vector<Issued> issued;
  issued.reserve(static_cast<size_t>(offered_qps * duration * 2) + 16);

  OpenLoopResult result;
  {
    QueryScheduler sched(sopts);
    QueryOptions base = OpenLoopQueryOptions(w, plan.estimate.policy,
                                             inflight);
    base.deadline_seconds = plan.slo_seconds;
    ZipfGenerator window_pick(kNumWindows, kWindowZipfTheta, seed ^ 0x51);
    LoadGenOptions lopts;
    lopts.arrival.kind = arrival;
    lopts.arrival.rate_qps = offered_qps;
    lopts.arrival.seed = seed;
    lopts.duration_seconds = duration;
    // Two tenants keep the per-tenant accounting exercised (the
    // invariants gate checks it sums to the totals).
    lopts.tenants = {TenantMix{0, 0.5}, TenantMix{1, 0.5}};
    lopts.mix_seed = seed ^ 0xa11;
    // Goodput is measured over the FULL serving window, submit through
    // drain: the drain tail is real serving time (at overload the
    // queue-forever baseline pays for its backlog there).
    WallTimer serve_wall;
    result.gen = LoadGenerator::Run(
        lopts, [&](uint64_t i, const TenantMix& tenant) {
          QueryOptions options = base;
          options.tenant = tenant.tenant;
          const int kind_index = static_cast<int>(i % kNumOpenLoopKinds);
          const uint32_t window =
              static_cast<uint32_t>(window_pick.Next() - 1);
          issued.push_back(Issued{
              SubmitOpenLoopKind(sched, w, kind_index, window, options),
              kind_index, window});
        });
    sched.Drain();
    result.serve_seconds = serve_wall.ElapsedSeconds();
    result.stats = sched.serving_stats();
    for (const Issued& q : issued) {
      const QueryStats stats = sched.Wait(q.ticket);
      switch (stats.outcome) {
        case QueryOutcome::kServed: {
          ++result.served;
          const Workload::Oracle& oracle =
              w.oracles[q.kind_index][q.window];
          if (stats.run.outputs != oracle.outputs ||
              stats.run.checksum != oracle.checksum) {
            ++result.divergent;
          }
          if (stats.deadline_met) ++result.goodput;
          break;
        }
        case QueryOutcome::kRejected:
          ++result.rejected;
          break;
        case QueryOutcome::kShed:
          ++result.shed;
          break;
      }
    }
  }
  result.goodput_qps =
      result.serve_seconds > 0
          ? static_cast<double>(result.goodput) / result.serve_seconds
          : 0;
  return result;
}

/// Gate: ServingStats counters must exactly match the per-ticket tallies
/// and the outcome partition must cover every submission (the merge
/// invariant — rejected/shed queries must not leak into served sums).
bool CheckOpenLoopInvariants(const OpenLoopResult& r, const char* where) {
  bool ok = true;
  const ServingStats& s = r.stats;
  if (s.submitted != r.gen.submitted ||
      s.completed + s.rejected + s.shed != s.submitted) {
    std::printf("ERROR[%s]: outcome partition broken: submitted=%llu "
                "completed=%llu rejected=%llu shed=%llu\n",
                where, static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.shed));
    ok = false;
  }
  if (s.completed != r.served || s.rejected != r.rejected ||
      s.shed != r.shed || s.goodput_queries != r.goodput) {
    std::printf("ERROR[%s]: ServingStats counters disagree with per-ticket "
                "tallies\n",
                where);
    ok = false;
  }
  if (s.goodput_queries + s.deadline_missed != s.completed) {
    std::printf("ERROR[%s]: goodput + missed != completed\n", where);
    ok = false;
  }
  uint64_t tenant_submitted = 0;
  for (const TenantServingStats& t : s.tenants) {
    tenant_submitted += t.submitted;
  }
  if (tenant_submitted != s.submitted) {
    std::printf("ERROR[%s]: per-tenant submitted sums to %llu, not %llu\n",
                where, static_cast<unsigned long long>(tenant_submitted),
                static_cast<unsigned long long>(s.submitted));
    ok = false;
  }
  if (r.divergent > 0) {
    std::printf("ERROR[%s]: %llu served queries diverged from the solo "
                "oracle\n",
                where, static_cast<unsigned long long>(r.divergent));
    ok = false;
  }
  return ok;
}

int RunOpenLoop(const BenchArgs& args, bool quick, uint64_t scale,
                uint32_t inflight) {
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  uint32_t workers = 0;
  // Small pools on purpose: the single generator thread must sustain
  // 1.5x the pool's capacity, and the capacity model is cleanest when
  // the serve workers, not the submit path, are the bottleneck.
  workers = std::min(hw, quick ? 3u : 5u);
  workers = std::max(2u, workers);
  const uint32_t serve = workers - 1;
  const double duration = quick ? 0.4 : 1.0;
  const std::vector<ExecPolicy> policies =
      quick ? std::vector<ExecPolicy>{ExecPolicy::kSequential,
                                      ExecPolicy::kAmac}
            : std::vector<ExecPolicy>{
                  ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
                  ExecPolicy::kAmac, ExecPolicy::kVectorizedAmac};
  const std::vector<double> load_factors =
      quick ? std::vector<double>{0.6, 0.9, 1.5}
            : std::vector<double>{0.5, 0.8, 1.0, 1.5};
  const double overload_factor = load_factors.back();

  PrintHeader(
      "Serving extension (open loop): offered load vs goodput-under-SLO",
      (quick ? std::string("CI smoke (--quick)")
             : std::string("full sweep")) +
          ": " + std::to_string(workers) + " workers (" +
          std::to_string(serve) + " serving), " +
          std::to_string(kNumOpenLoopKinds) + " query kinds x " +
          std::to_string(kNumWindows) + " Zipf(" +
          TablePrinter::Fmt(kWindowZipfTheta, 2) + ") windows, scale 2^" +
          std::to_string(63 - __builtin_clzll(scale)));

  OpenLoopWorkload w = PrepareOpenLoopWorkload(scale);
  const double tsc_hz = EstimateTscHz();

  const std::string json_path = args.flags.GetString("json");
  std::unique_ptr<JsonWriter> json;
  if (!json_path.empty()) {
    json = std::make_unique<JsonWriter>(json_path, "ext_serving_openloop");
    json->Field("scale", scale);
    json->Field("workers", workers);
    json->Field("serve_workers", serve);
    json->Field("duration_seconds", duration);
    json->BeginSeries();
  }

  bool ok = true;
  uint32_t policies_within_band = 0;
  uint64_t seed = 7001;
  for (const ExecPolicy policy : policies) {
    const PolicyPlan plan =
        MeasurePolicyPlan(w, policy, serve, inflight, tsc_hz,
                          /*reps=*/quick ? 2 : 3);
    TablePrinter table(
        std::string("ext_serving --open-loop ") + ExecPolicyName(policy) +
            ": predicted capacity " +
            TablePrinter::Fmt(plan.estimate.capacity_qps, 0) +
            " qps, SLO " +
            TablePrinter::Fmt(plan.slo_seconds * 1e3, 2) + " ms",
        {"offered qps", "mode", "served", "rejected", "shed",
         "goodput qps", "p99 ms", "max lag ms"});
    double measured_qps = 0;
    double baseline_overload_goodput = 0;
    double slo_overload_goodput = 0;
    for (const double factor : load_factors) {
      const double offered = factor * plan.estimate.capacity_qps;
      for (const bool slo_aware : {false, true}) {
        const OpenLoopResult r = RunOpenLoopPoint(
            w, plan, workers, inflight, slo_aware, ArrivalKind::kPoisson,
            offered, duration, seed++);
        ok = CheckOpenLoopInvariants(
                 r, slo_aware ? "slo-aware" : "baseline") &&
             ok;
        table.AddRow({TablePrinter::Fmt(offered, 0),
                      slo_aware ? "slo-aware" : "baseline",
                      std::to_string(r.served), std::to_string(r.rejected),
                      std::to_string(r.shed),
                      TablePrinter::Fmt(r.goodput_qps, 1),
                      TablePrinter::Fmt(
                          r.stats.p99_latency_seconds * 1e3, 2),
                      TablePrinter::Fmt(r.gen.max_lag_seconds * 1e3, 2)});
        if (slo_aware) {
          measured_qps = std::max(measured_qps, r.goodput_qps);
          if (factor == overload_factor) slo_overload_goodput = r.goodput_qps;
        } else if (factor == overload_factor) {
          baseline_overload_goodput = r.goodput_qps;
        }
        if (json) {
          json->BeginPoint();
          json->Field("policy", std::string(ExecPolicyName(policy)));
          json->Field("arrival", std::string("poisson"));
          json->Field("mode", std::string(slo_aware ? "slo-aware"
                                                    : "baseline"));
          json->Field("load_factor", factor);
          json->Field("offered_qps", offered);
          json->Field("predicted_capacity_qps", plan.estimate.capacity_qps);
          json->Field("submitted", r.gen.submitted);
          json->Field("served", r.served);
          json->Field("rejected", r.rejected);
          json->Field("shed", r.shed);
          json->Field("goodput_qps", r.goodput_qps);
          json->Field("p50_ms", r.stats.p50_latency_seconds * 1e3);
          json->Field("p99_ms", r.stats.p99_latency_seconds * 1e3);
          json->Field("max_lag_ms", r.gen.max_lag_seconds * 1e3);
        }
      }
    }
    table.Print();
    // The queueing knee: past predicted capacity the queue-forever
    // baseline's latencies blow through the SLO, while shedding admission
    // keeps serving within it.
    if (slo_overload_goodput <= baseline_overload_goodput) {
      std::printf("ERROR: %s at %.1fx capacity: slo-aware goodput %.1f qps "
                  "not above baseline %.1f qps\n",
                  ExecPolicyName(policy), overload_factor,
                  slo_overload_goodput, baseline_overload_goodput);
      ok = false;
    }
    const double ratio =
        measured_qps > 0 ? plan.estimate.capacity_qps / measured_qps : 0;
    const bool within = ratio >= 0.7 && ratio <= 1.43;
    std::printf("%s: predicted %.0f qps, measured max goodput %.0f qps "
                "(ratio %.2f%s)\n",
                ExecPolicyName(policy), plan.estimate.capacity_qps,
                measured_qps, ratio, within ? ", within 30%" : "");
    if (within) ++policies_within_band;
  }
  if (policies_within_band < 2) {
    std::printf("ERROR: capacity prediction within 30%% for only %u "
                "policies (need >= 2)\n",
                policies_within_band);
    ok = false;
  }

  // Arrival-process section: same mean offered load, different shapes.
  // Burstiness costs goodput at the same mean rate — the reason the
  // planner's capacity number alone does not size a deployment.
  {
    const ExecPolicy policy = ExecPolicy::kAmac;
    const PolicyPlan plan =
        MeasurePolicyPlan(w, policy, serve, inflight, tsc_hz, 2);
    const double offered = 0.9 * plan.estimate.capacity_qps;
    TablePrinter table(
        std::string("ext_serving --open-loop arrival shapes (") +
            ExecPolicyName(policy) + ", 0.9x capacity, slo-aware)",
        {"arrival", "submitted", "served", "shed", "goodput qps",
         "p99 ms"});
    for (const ArrivalKind arrival :
         {ArrivalKind::kPoisson, ArrivalKind::kBursty,
          ArrivalKind::kDiurnal}) {
      const OpenLoopResult r =
          RunOpenLoopPoint(w, plan, workers, inflight, /*slo_aware=*/true,
                           arrival, offered, duration, seed++);
      ok = CheckOpenLoopInvariants(r, ArrivalKindName(arrival)) && ok;
      table.AddRow({ArrivalKindName(arrival),
                    std::to_string(r.gen.submitted),
                    std::to_string(r.served), std::to_string(r.shed),
                    TablePrinter::Fmt(r.goodput_qps, 1),
                    TablePrinter::Fmt(r.stats.p99_latency_seconds * 1e3,
                                      2)});
      if (json) {
        json->BeginPoint();
        json->Field("policy", std::string(ExecPolicyName(policy)));
        json->Field("arrival", std::string(ArrivalKindName(arrival)));
        json->Field("mode", std::string("slo-aware"));
        json->Field("load_factor", 0.9);
        json->Field("offered_qps", offered);
        json->Field("submitted", r.gen.submitted);
        json->Field("served", r.served);
        json->Field("shed", r.shed);
        json->Field("goodput_qps", r.goodput_qps);
        json->Field("p99_ms", r.stats.p99_latency_seconds * 1e3);
      }
    }
    table.Print();
  }

  if (json) ok = json->Close() && ok;
  std::printf("ext_serving --open-loop: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int Run(int argc, char** argv) {
  BenchArgs args;
  args.flags.DefineBool("quick", false,
                        "CI smoke: small scale, 8 clients, verify only");
  args.flags.DefineBool("open-loop", false,
                        "open-loop scenario: arrival-schedule load "
                        "generator, SLO-aware admission, capacity gates");
  args.flags.DefineString("json", "",
                          "write the per-policy load series as JSON to "
                          "this path");
  args.flags.DefineInt("workers", 0,
                       "scheduler pool size (0 = hardware threads)");
  args.flags.DefineInt("max_inflight", 0,
                       "admission cap on concurrent queries (0 = 2x "
                       "workers)");
  args.flags.DefineInt("queries", 4, "queries per client");
  args.Define(/*default_scale_log2=*/16);
  args.Parse(argc, argv);
  const bool quick = args.flags.GetBool("quick");
  if (quick) args.scale = uint64_t{1} << 12;
  if (args.flags.GetBool("open-loop")) {
    return RunOpenLoop(args, quick, args.scale, args.inflight);
  }

  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  uint32_t workers = static_cast<uint32_t>(args.flags.GetInt("workers"));
  if (workers == 0) workers = hw;
  uint32_t max_inflight =
      static_cast<uint32_t>(args.flags.GetInt("max_inflight"));
  if (max_inflight == 0) max_inflight = 2 * workers;
  const uint32_t per_client =
      std::max<uint32_t>(1, static_cast<uint32_t>(
                                args.flags.GetInt("queries")));

  PrintHeader(
      "Serving extension: concurrent mixed queries on one shared pool",
      (quick ? std::string("CI smoke (--quick): 8 clients, scale 2^12")
             : "clients 1->64, scale 2^" +
                   std::to_string(args.flags.GetInt("scale_log2"))) +
          ", " + std::to_string(workers) + " workers, max_inflight " +
          std::to_string(max_inflight) + ", mixed " +
          std::to_string(kNumKinds) + "-kind workload");

  Workload w = PrepareWorkload(args.scale);
  ComputeOracles(&w);

  std::vector<uint32_t> client_counts;
  if (quick) {
    client_counts = {8};
  } else {
    for (uint32_t c : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      client_counts.push_back(c);
    }
  }

  const std::string json_path = args.flags.GetString("json");
  std::unique_ptr<JsonWriter> json;
  if (!json_path.empty()) {
    json = std::make_unique<JsonWriter>(json_path, "ext_serving");
    json->Field("scale", args.scale);
    json->Field("workers", workers);
    json->Field("max_inflight", max_inflight);
    json->BeginSeries();
  }

  bool ok = true;
  for (ExecPolicy policy : kAllExecPolicies) {
    TablePrinter table(
        std::string("ext_serving ") + ExecPolicyName(policy) +
            ": throughput and latency vs concurrent clients",
        {"clients", "queries/s", "p50 ms", "p95 ms", "p99 ms",
         "avg queue ms"});
    for (uint32_t clients : client_counts) {
      const LoadPoint point = RunLoad(w, policy, workers, max_inflight,
                                      clients, per_client, args.inflight);
      ok = ReportPoint(&table, point) && ok;
      if (json) {
        json->BeginPoint();
        json->Field("policy", std::string(ExecPolicyName(policy)));
        json->Field("clients", clients);
        json->Field("queries_per_sec",
                    point.seconds > 0
                        ? static_cast<double>(point.queries) / point.seconds
                        : 0.0);
        json->Field("p50_ms", point.serving.p50_latency_seconds * 1e3);
        json->Field("p95_ms", point.serving.p95_latency_seconds * 1e3);
        json->Field("p99_ms", point.serving.p99_latency_seconds * 1e3);
      }
    }
    table.Print();
  }
  if (json) ok = json->Close() && ok;
  if (!quick) {
    std::printf(
        "expected shape: throughput rises with clients until the pool "
        "saturates (~workers), then p95/p99 grow with queue depth while "
        "p50 stays near the solo execute time; prefetching policies hold "
        "higher plateaus than Sequential.\n");
  }
  std::printf("ext_serving: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Run(argc, argv); }
