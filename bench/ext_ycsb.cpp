// YCSB-style read-write serving over the concurrent chained hash table:
// the capstone of the epoch-reclamation + write-path subsystem.
//
// Three scenarios, every one of them a self-check that exits nonzero on
// divergence or a reclamation leak:
//
//  1. Mixed-mix grid — YCSB-B (95% read / 5% update) and YCSB-A (50/50)
//     Zipf traces run as 8 concurrent queries through the QueryScheduler,
//     for every ExecPolicy (including the kAdaptive governor) x worker
//     counts {1, 2, 4}.  Updates write a per-key deterministic value, so
//     the final table state is interleaving-independent: after the drain
//     it is compared slot-for-slot against the sequential-replay oracle.
//     Reads validate online (a payload must be the loaded or the updated
//     value of ITS OWN key — the claim-once slot discipline forbids
//     stitching key A to payload B) and must never miss (no key is ever
//     erased in the mixed grid).
//
//  2. Churn — concurrent inserts then erases (hash table AND skip list)
//     through the staged write ops, with compaction forced by deep
//     chains; gates on the structural audit, the exact surviving key set,
//     and retired == reclaimed after the final drain.
//
//  3. Open-loop — a LoadGenerator submits point read-write queries on a
//     Poisson schedule with a deadline SLO against a live table; gates on
//     online validation and outcome-counter conservation.
//
//   --quick        CI smoke: 2^12 keys, 8 ops/key, all policies
//   --workers=...  override the worker-count sweep's maximum
//   --json=PATH    perf artifact (default BENCH_ext_ycsb.json)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cycle_timer.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/zipf.h"
#include "epoch/epoch.h"
#include "hashtable/concurrent_ops.h"
#include "hashtable/concurrent_table.h"
#include "server/load_gen.h"
#include "server/query_scheduler.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_write_ops.h"

namespace amac::bench {
namespace {

/// Deterministic per-key values: LoadVal seeds the table, every update of
/// key k writes UpVal(k).  Updates being idempotent per key is what makes
/// the final state independent of the concurrent interleaving.
int64_t LoadVal(int64_t key) { return key * 2; }
int64_t UpVal(int64_t key) { return key * 2 + 1; }

enum class TraceKind : uint8_t { kRead, kUpdate };
struct TraceOp {
  TraceKind kind;
  int64_t key;
};

struct MixSpec {
  const char* name;
  double read_fraction;
};
constexpr MixSpec kMixes[] = {
    {"ycsb-b-95r-5u", 0.95},
    {"ycsb-a-50r-50u", 0.50},
};
constexpr double kZipfTheta = 0.8;

std::vector<TraceOp> MakeTrace(uint64_t num_ops, uint64_t num_keys,
                               double read_fraction, uint64_t seed) {
  ZipfGenerator zipf(num_keys, kZipfTheta, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const uint64_t read_cut =
      static_cast<uint64_t>(read_fraction * 1'000'000.0);
  std::vector<TraceOp> trace;
  trace.reserve(num_ops);
  for (uint64_t i = 0; i < num_ops; ++i) {
    const TraceKind kind = rng.NextBounded(1'000'000) < read_cut
                               ? TraceKind::kRead
                               : TraceKind::kUpdate;
    trace.push_back(TraceOp{kind, static_cast<int64_t>(zipf.Next())});
  }
  return trace;
}

/// Shared per-cell gate counters (morsels of different queries bump them
/// concurrently).
struct CellCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> read_misses{0};
  std::atomic<uint64_t> payload_violations{0};
};

/// The YCSB stage machine: one trace op per input, reads walking the
/// chain latch-free (parking per node hop like ConcurrentFindOp), updates
/// try-acquiring the bucket latch (kRetry like UpsertOp).  No vector
/// interface — the vectorized policies take the counted scalar fallback,
/// which the JSON reports as vec_fallbacks.
class YcsbOp {
 public:
  struct State {
    const BucketNode* node;  ///< read cursor
    BucketNode* head;        ///< update target
    int64_t key;
    bool is_update;
  };

  YcsbOp(ConcurrentChainedTable& table, const TraceOp* trace,
         CellCounters* counters)
      : table_(&table),
        trace_(trace),
        counters_(counters),
        guard_(table.epochs()) {}

  void Start(State& st, uint64_t idx) {
    if (inflight_ == 0) guard_.Refresh();
    ++inflight_;
    const TraceOp& op = trace_[idx];
    st.key = op.key;
    st.is_update = op.kind == TraceKind::kUpdate;
    if (st.is_update) {
      st.head = table_->BucketForKey(st.key);
      PrefetchWrite(st.head);
    } else {
      st.node = table_->BucketForKey(st.key);
      Prefetch(st.node);
    }
  }

  StepStatus Step(State& st) {
    if (st.is_update) {
      if (!st.head->latch.TryAcquire()) return StepStatus::kRetry;
      table_->UpsertLocked(st.head, st.key, UpVal(st.key), guard_);
      st.head->latch.Release();
      counters_->updates.fetch_add(1, std::memory_order_relaxed);
      --inflight_;
      return StepStatus::kDone;
    }
    const BucketNode* node = st.node;
    for (uint32_t i = 0; i < BucketNode::kTuplesPerNode; ++i) {
      if (concurrent_detail::LoadKeyAcquire(node->tuples[i]) == st.key) {
        const int64_t payload =
            concurrent_detail::LoadPayloadRelaxed(node->tuples[i]);
        if (payload != LoadVal(st.key) && payload != UpVal(st.key)) {
          counters_->payload_violations.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        counters_->reads.fetch_add(1, std::memory_order_relaxed);
        --inflight_;
        return StepStatus::kDone;
      }
    }
    const BucketNode* next = concurrent_detail::LoadNextAcquire(node);
    if (next == nullptr) {
      counters_->read_misses.fetch_add(1, std::memory_order_relaxed);
      counters_->reads.fetch_add(1, std::memory_order_relaxed);
      --inflight_;
      return StepStatus::kDone;
    }
    st.node = next;
    Prefetch(next);
    return StepStatus::kParked;
  }

 private:
  ConcurrentChainedTable* table_;
  const TraceOp* trace_;
  CellCounters* counters_;
  EpochGuard guard_;
  uint64_t inflight_ = 0;
};

int Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return 1;
}

struct CellResult {
  bool ok = false;
  double mops_per_sec = 0;
  uint64_t vec_fallbacks = 0;
  uint64_t morsels = 0;
  uint64_t reclaimed = 0;
  PerfCounters::Sample perf;  ///< merged across the cell's queries
};

/// One grid cell: fresh table, load, serve the trace as 8 concurrent
/// queries, verify online + final state + leak accounting.
CellResult RunMixCell(const std::vector<TraceOp>& trace,
                      const std::vector<uint8_t>& oracle_updated,
                      uint64_t num_keys, ExecPolicy policy, uint32_t workers,
                      uint32_t inflight) {
  CellResult result;
  EpochManager epochs;
  ConcurrentChainedTable table(num_keys, &epochs);
  {
    EpochGuard guard(&epochs);
    for (int64_t k = 1; k <= static_cast<int64_t>(num_keys); ++k) {
      table.Upsert(k, LoadVal(k), guard);
    }
  }
  CellCounters counters;
  uint64_t vec_fallbacks = 0;
  uint64_t morsels = 0;
  double wall = 0;
  {
    QuerySchedulerOptions sopt;
    sopt.num_workers = workers;
    QueryScheduler sched(sopt);
    // The serving loop's quiescence driver: idle workers advance the epoch
    // and sweep orphans, exactly how a long-lived server stays leak-free.
    sched.pool().SetIdleTask(
        [&epochs] { return epochs.AdvanceAndReclaim(); });
    QueryOptions options;
    options.policy = policy;
    options.params.inflight = inflight;
    options.params.stages = 2;
    constexpr uint64_t kQueries = 8;
    const uint64_t per_query = trace.size() / kQueries;
    std::vector<QueryTicket> tickets;
    WallTimer timer;
    for (uint64_t q = 0; q < kQueries; ++q) {
      const uint64_t begin = q * per_query;
      const uint64_t len =
          q + 1 == kQueries ? trace.size() - begin : per_query;
      const TraceOp* segment = trace.data() + begin;
      tickets.push_back(sched.SubmitOp(
          len,
          [&table, segment, &counters](uint32_t) {
            return YcsbOp(table, segment, &counters);
          },
          options));
    }
    for (const QueryTicket& t : tickets) {
      const QueryStats stats = sched.Wait(t);
      if (stats.outcome != QueryOutcome::kServed) return result;
      vec_fallbacks += stats.run.engine.vec_fallbacks;
      morsels += stats.run.morsels;
      result.perf.Merge(stats.run.perf);
    }
    wall = timer.ElapsedSeconds();
    tickets.clear();
    sched.Drain();
  }  // scheduler destroyed: every per-slot op (and its guard) is gone

  // Gates: exact op accounting, no misses (nothing is ever erased here),
  // no payload rule violations.
  uint64_t expect_updates = 0;
  for (const TraceOp& op : trace) {
    expect_updates += op.kind == TraceKind::kUpdate ? 1 : 0;
  }
  if (counters.updates.load() != expect_updates) return result;
  if (counters.reads.load() != trace.size() - expect_updates) return result;
  if (counters.read_misses.load() != 0) return result;
  if (counters.payload_violations.load() != 0) return result;
  // Final state must equal the sequential replay bit for bit.
  const auto audit = table.AuditQuiesced();
  if (!audit.ok || audit.live_tuples != num_keys) return result;
  std::vector<Tuple> live;
  table.CollectLive(&live);
  if (live.size() != num_keys) return result;
  std::sort(live.begin(), live.end(),
            [](const Tuple& a, const Tuple& b) { return a.key < b.key; });
  for (uint64_t i = 0; i < num_keys; ++i) {
    const int64_t k = static_cast<int64_t>(i + 1);
    const int64_t want = oracle_updated[i + 1] ? UpVal(k) : LoadVal(k);
    if (live[i].key != k || live[i].payload != want) return result;
  }
  epochs.ReclaimAll();
  if (epochs.retired() != epochs.reclaimed()) return result;
  result.ok = true;
  result.mops_per_sec =
      wall > 0 ? static_cast<double>(trace.size()) / wall / 1e6 : 0;
  result.vec_fallbacks = vec_fallbacks;
  result.morsels = morsels;
  result.reclaimed = epochs.reclaimed();
  return result;
}

/// Churn scenario: staged concurrent inserts then erases through the
/// QueryScheduler, on both write-path structures, with deep chains so the
/// table's tombstone compaction has something to unlink.
int RunChurn(uint64_t num_keys, uint32_t workers, JsonWriter* json) {
  constexpr uint64_t kQueries = 4;
  const uint64_t stripe = num_keys / kQueries;
  std::vector<int64_t> keys(stripe * kQueries);
  std::vector<int64_t> payloads(keys.size());
  for (uint64_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i) + 1;
    payloads[i] = LoadVal(keys[i]);
  }
  std::vector<int64_t> odd_keys;
  for (const int64_t k : keys) {
    if (k % 2 == 1) odd_keys.push_back(k);
  }
  const uint64_t odd_stripe = odd_keys.size() / kQueries;

  QueryOptions options;
  options.policy = ExecPolicy::kAmac;
  options.params.inflight = 8;

  // Hash table: insert all stripes concurrently, then erase the odd keys.
  EpochManager epochs;
  ConcurrentChainedTable::Options topt;
  topt.target_tuples_per_slot = 8.0;  // deep chains -> compaction work
  topt.compact_tombstones = 4;
  ConcurrentChainedTable table(keys.size(), &epochs, topt);
  SkipList slist(keys.size());
  {
    QuerySchedulerOptions sopt;
    sopt.num_workers = workers;
    QueryScheduler sched(sopt);
    sched.pool().SetIdleTask(
        [&epochs] { return epochs.AdvanceAndReclaim(); });
    std::vector<QueryTicket> tickets;
    for (uint64_t q = 0; q < kQueries; ++q) {
      const int64_t* kp = keys.data() + q * stripe;
      const int64_t* pp = payloads.data() + q * stripe;
      tickets.push_back(sched.SubmitOp(
          stripe,
          [&table, kp, pp](uint32_t) { return UpsertOp(table, kp, pp); },
          options));
      tickets.push_back(sched.SubmitOp(
          stripe,
          [&slist, &epochs, kp, pp, q](uint32_t slot) {
            return SkipInsertOp(slist, &epochs, kp, pp,
                                /*seed=*/q * 31 + slot + 1);
          },
          options));
    }
    for (const QueryTicket& t : tickets) (void)sched.Wait(t);
    tickets.clear();
    for (uint64_t q = 0; q < kQueries; ++q) {
      const int64_t* kp = odd_keys.data() + q * odd_stripe;
      const uint64_t len =
          q + 1 == kQueries ? odd_keys.size() - q * odd_stripe : odd_stripe;
      tickets.push_back(sched.SubmitOp(
          len, [&table, kp](uint32_t) { return EraseOp(table, kp); },
          options));
      tickets.push_back(sched.SubmitOp(
          len,
          [&slist, &epochs, kp](uint32_t) {
            return SkipEraseOp(slist, &epochs, kp);
          },
          options));
    }
    for (const QueryTicket& t : tickets) (void)sched.Wait(t);
    tickets.clear();
    sched.Drain();
  }

  // Survivors: exactly the even keys, in both structures.
  const uint64_t expect_live = keys.size() - odd_keys.size();
  const auto audit = table.AuditQuiesced();
  if (!audit.ok) return Fail("churn: table audit failed");
  if (audit.live_tuples != expect_live) {
    return Fail("churn: table live count diverged");
  }
  std::vector<Tuple> live;
  table.CollectLive(&live);
  std::sort(live.begin(), live.end(),
            [](const Tuple& a, const Tuple& b) { return a.key < b.key; });
  for (uint64_t i = 0; i < live.size(); ++i) {
    const int64_t k = static_cast<int64_t>(2 * (i + 1));
    if (live[i].key != k || live[i].payload != LoadVal(k)) {
      return Fail("churn: table survivor set diverged");
    }
  }
  if (slist.size() != expect_live) {
    return Fail("churn: skiplist live count diverged");
  }
  {
    int64_t prev = 0;
    bool ordered = true;
    uint64_t walked = 0;
    slist.ForEach([&](const SkipNode& n) {
      ordered = ordered && n.key > prev && n.key % 2 == 0;
      prev = n.key;
      ++walked;
    });
    if (!ordered || walked != expect_live) {
      return Fail("churn: skiplist walk diverged");
    }
  }
  epochs.ReclaimAll();
  if (epochs.retired() != epochs.reclaimed()) {
    return Fail("churn: reclamation leak (retired != reclaimed)");
  }
  std::printf(
      "churn: %llu live of %llu, compactions=%llu retired=%llu "
      "reclaimed=%llu recycled(ht)=%llu recycled(skip)=%llu\n",
      static_cast<unsigned long long>(expect_live),
      static_cast<unsigned long long>(keys.size()),
      static_cast<unsigned long long>(table.compactions()),
      static_cast<unsigned long long>(epochs.retired()),
      static_cast<unsigned long long>(epochs.reclaimed()),
      static_cast<unsigned long long>(table.recycled_nodes()),
      static_cast<unsigned long long>(slist.recycled_nodes()));
  if (json != nullptr) {
    json->BeginPoint();
    json->Field("section", std::string("churn"));
    json->Field("live", expect_live);
    json->Field("compactions", table.compactions());
    json->Field("retired", epochs.retired());
    json->Field("reclaimed", epochs.reclaimed());
  }
  return 0;
}

/// Open-loop scenario: Poisson arrivals of small read-write point queries
/// with a deadline SLO, against one live table.
int RunOpenLoop(const std::vector<TraceOp>& trace, uint64_t num_keys,
                uint32_t workers, bool quick, JsonWriter* json) {
  EpochManager epochs;
  ConcurrentChainedTable table(num_keys, &epochs);
  {
    EpochGuard guard(&epochs);
    for (int64_t k = 1; k <= static_cast<int64_t>(num_keys); ++k) {
      table.Upsert(k, LoadVal(k), guard);
    }
  }
  CellCounters counters;
  constexpr uint64_t kOpsPerQuery = 256;
  LoadGenReport report;
  ServingStats stats;
  uint64_t waited_served = 0, waited_other = 0;
  // num_workers == 1 means the client pumps in Wait(), but here the client
  // is busy generating arrivals for the whole run — queries would just sit
  // until their deadline expires.  Open loop needs a background pump.
  workers = std::max(workers, 2u);
  {
    QuerySchedulerOptions sopt;
    sopt.num_workers = workers;
    sopt.max_inflight_queries = workers;
    sopt.max_pending = 64;
    sopt.shed_expired = true;
    sopt.order = AdmissionOrder::kDeadline;
    QueryScheduler sched(sopt);
    sched.pool().SetIdleTask(
        [&epochs] { return epochs.AdvanceAndReclaim(); });
    QueryOptions options;
    options.policy = ExecPolicy::kAmac;
    options.params.inflight = 8;
    options.deadline_seconds = 0.05;
    LoadGenOptions gopt;
    gopt.arrival.kind = ArrivalKind::kPoisson;
    gopt.arrival.rate_qps = quick ? 2000 : 5000;
    gopt.duration_seconds = quick ? 0.25 : 1.0;
    gopt.max_queries = 4096;
    std::vector<QueryTicket> tickets;
    const uint64_t max_begin = trace.size() - kOpsPerQuery;
    report = LoadGenerator::Run(gopt, [&](uint64_t index, const TenantMix&) {
      const TraceOp* segment =
          trace.data() + (index * kOpsPerQuery) % max_begin;
      tickets.push_back(sched.SubmitOp(
          kOpsPerQuery,
          [&table, segment, &counters](uint32_t) {
            return YcsbOp(table, segment, &counters);
          },
          options));
    });
    for (const QueryTicket& t : tickets) {
      const QueryStats qs = sched.Wait(t);
      ++(qs.outcome == QueryOutcome::kServed ? waited_served : waited_other);
    }
    tickets.clear();
    sched.Drain();
    stats = sched.serving_stats();
  }
  if (counters.read_misses.load() != 0) {
    return Fail("open-loop: read misses on a no-erase table");
  }
  if (counters.payload_violations.load() != 0) {
    return Fail("open-loop: payload rule violated");
  }
  if (stats.submitted != report.submitted) {
    return Fail("open-loop: submit counter mismatch");
  }
  if (stats.completed + stats.rejected + stats.shed != stats.submitted) {
    return Fail("open-loop: outcome counters do not conserve");
  }
  if (stats.completed != waited_served ||
      stats.rejected + stats.shed != waited_other) {
    return Fail("open-loop: per-ticket outcomes diverge from ServingStats");
  }
  epochs.ReclaimAll();
  if (epochs.retired() != epochs.reclaimed()) {
    return Fail("open-loop: reclamation leak");
  }
  std::printf(
      "open-loop: offered %.0f qps, served %llu / rejected %llu / shed "
      "%llu of %llu, goodput %llu, p95 %.2f ms\n",
      report.offered_qps, static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.goodput_queries),
      stats.p95_latency_seconds * 1e3);
  if (json != nullptr) {
    json->BeginPoint();
    json->Field("section", std::string("open-loop"));
    json->Field("offered_qps", report.offered_qps);
    json->Field("submitted", stats.submitted);
    json->Field("completed", stats.completed);
    json->Field("rejected", stats.rejected);
    json->Field("shed", stats.shed);
    json->Field("goodput_queries", stats.goodput_queries);
    json->Field("p95_latency_seconds", stats.p95_latency_seconds);
  }
  return 0;
}

int Main(int argc, char** argv) {
  BenchArgs args;
  args.Define(/*default_scale_log2=*/17);
  args.flags.DefineBool("quick", false,
                        "CI smoke scale (2^12 keys, 8 ops per key)");
  args.flags.DefineString("json", "BENCH_ext_ycsb.json",
                          "perf artifact path (empty disables)");
  args.flags.DefineInt("workers", 0,
                       "max workers in the sweep (0 = min(4, hardware))");
  args.Parse(argc, argv);
  const bool quick = args.flags.GetBool("quick");
  const uint64_t num_keys = quick ? uint64_t{1} << 12 : args.scale;
  const uint64_t num_ops = num_keys * 8;
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  uint32_t max_workers = static_cast<uint32_t>(args.flags.GetInt("workers"));
  if (max_workers == 0) max_workers = std::min(4u, hw);

  PrintHeader("ext: YCSB read-write serving (epoch-reclaimed write path)",
              "updates are per-key deterministic; final state is compared "
              "against the sequential-replay oracle");
  std::printf("keys=%llu ops=%llu max_workers=%u\n\n",
              static_cast<unsigned long long>(num_keys),
              static_cast<unsigned long long>(num_ops), max_workers);

  const std::string json_path = args.flags.GetString("json");
  std::unique_ptr<JsonWriter> json;
  if (!json_path.empty()) {
    json = std::make_unique<JsonWriter>(json_path, "ext_ycsb");
    if (!json->ok()) return 1;
    json->Field("keys", num_keys);
    json->Field("ops", num_ops);
    json->Field("zipf_theta", kZipfTheta);
    json->Field("max_workers", max_workers);
    json->Field("quick", std::string(quick ? "true" : "false"));
    json->BeginSeries();
  }

  std::vector<uint32_t> worker_sweep;
  for (uint32_t w = 1; w <= max_workers; w *= 2) worker_sweep.push_back(w);

  std::vector<ExecPolicy> policies(std::begin(kAllExecPolicies),
                                   std::end(kAllExecPolicies));
  policies.push_back(ExecPolicy::kAdaptive);

  TablePrinter printer("YCSB mixes (Mops/s, workers=" +
                           std::to_string(max_workers) + ")",
                       {"mix", "policy", "Mops/s", "vec_fallbacks"});
  for (const MixSpec& mix : kMixes) {
    const std::vector<TraceOp> trace =
        MakeTrace(num_ops, num_keys, mix.read_fraction, /*seed=*/1701);
    // Sequential-replay oracle: which keys saw an update.
    std::vector<uint8_t> updated(num_keys + 1, 0);
    for (const TraceOp& op : trace) {
      if (op.kind == TraceKind::kUpdate) updated[op.key] = 1;
    }
    for (const ExecPolicy policy : policies) {
      for (const uint32_t workers : worker_sweep) {
        const CellResult cell = RunMixCell(trace, updated, num_keys, policy,
                                           workers, args.inflight);
        if (!cell.ok) {
          std::fprintf(stderr, "FAIL: %s %s workers=%u diverged\n", mix.name,
                       ExecPolicyName(policy), workers);
          return 1;
        }
        if (json != nullptr) {
          json->BeginPoint();
          json->Field("section", std::string("mix"));
          json->Field("mix", std::string(mix.name));
          json->Field("policy", std::string(ExecPolicyName(policy)));
          json->Field("workers", workers);
          json->Field("mops_per_sec", cell.mops_per_sec);
          json->Field("vec_fallbacks", cell.vec_fallbacks);
          json->Field("morsels", cell.morsels);
          json->Field("reclaimed", cell.reclaimed);
          PerfJsonFields(json.get(), cell.perf);
        }
        if (workers == max_workers) {
          printer.AddRow({mix.name, ExecPolicyName(policy),
                          TablePrinter::Fmt(cell.mops_per_sec, 2),
                          TablePrinter::Fmt(cell.vec_fallbacks)});
        }
      }
    }
  }
  printer.Print();
  std::printf("\n");

  if (const int rc = RunChurn(num_keys, max_workers, json.get()); rc != 0) {
    return rc;
  }
  {
    const std::vector<TraceOp> trace =
        MakeTrace(num_ops, num_keys, /*read_fraction=*/0.95, /*seed=*/1702);
    if (const int rc =
            RunOpenLoop(trace, num_keys, max_workers, quick, json.get());
        rc != 0) {
      return rc;
    }
  }

  if (json != nullptr && !json->Close()) return 1;
  std::printf("\next_ycsb: all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace amac::bench

int main(int argc, char** argv) { return amac::bench::Main(argc, argv); }
