// ycsb-rw: closed-loop read-write batches on the concurrent hash table.
//
// One client thread keeps `depth` batch queries in flight on a 3-worker
// QueryScheduler (2 pool threads; the client pumps in Wait()), default
// kAmac, entering through QueryScheduler::SubmitOp.  It draws them in a
// seeded random order from a pool that is exactly 50% ConcurrentFindOp, 45%
// UpsertOp and 5% EraseOp batches over Zipf(0.8) keys of a
// ConcurrentChainedTable; epoch reclamation is driven by the pool's idle
// hook.  Latch-free readers run beside latched writers, with retries and
// epoch retire/reclaim.
//
// Checks: every read obeys the payload rule (a found payload is its own
// key's loaded or updated value); after the drain the table passes its
// structural audit, every key no erase batch touched holds exactly the
// value a sequential replay gives it, and retired == reclaimed after
// ReclaimAll.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/scheduler.h"
#include "epoch/epoch.h"
#include "hashtable/concurrent_ops.h"
#include "hashtable/concurrent_table.h"
#include "server/query_scheduler.h"

namespace perfbench {
namespace {

using namespace amac;

/// Keys 1..2^23, all loaded before the run.
constexpr uint64_t kKeys = uint64_t{1} << 23;
/// Keys per batch query: enough key work that per-query scheduling is a
/// small share of a batch.
constexpr uint64_t kBatchKeys = 4096;
/// Batches in the pool the client draws from (2^20 key operations);
/// the 50/45/5 mix is exact in it.
constexpr uint64_t kPoolBatches = 256;
/// Batches in flight: two per worker, so no worker idles while the client
/// checks a completion.
constexpr uint32_t kDepth = 6;
/// Key popularity skew.
constexpr double kZipfTheta = 0.8;
/// Lookups in flight per AMAC slot, for the batches and the table load.
constexpr uint32_t kInflight = 10;
/// Scheduler workers: the client thread plus 2 pool threads.  One of the
/// host's 4 cores stays free, so a neighbour process takes that core
/// instead of pausing a worker mid-batch, which is what moves p99.
constexpr uint32_t kWorkers = 3;
/// Set-ups per run; setup_s is their median.  One takes about 1 s and moves
/// by a third within a run as the shared host's speed drifts, so the median
/// is taken over many.
constexpr uint32_t kSetupReps = 15;
/// Untimed closed loop before the window, so page faults and the first
/// overflow-node allocations finish (the first second ran slower).
constexpr double kWarmupSeconds = 1.0;

/// Every key is loaded with LoadVal and every upsert writes UpVal, so a
/// key's value depends only on whether an upsert reached it.
int64_t LoadVal(int64_t key) { return key * 2; }
int64_t UpVal(int64_t key) { return key * 2 + 1; }

enum class BatchType : uint8_t { kFind, kUpsert, kErase };
constexpr const char* kTypeNames[3] = {"find", "upsert", "erase"};

struct Batch {
  BatchType type = BatchType::kFind;
  std::vector<int64_t> keys;
  std::vector<int64_t> payloads;  ///< upserts only
};

struct YcsbData {
  uint64_t keys = 0;
  std::unique_ptr<EpochManager> epochs;
  std::unique_ptr<ConcurrentChainedTable> table;
  std::vector<Batch> batches;  ///< the pool the client draws from

  YcsbData() = default;
  YcsbData(const YcsbData&) = delete;
  YcsbData& operator=(const YcsbData&) = delete;
  /// Retirements recycle into the table's free list: drain them first.
  ~YcsbData() {
    if (epochs) epochs->ReclaimAll();
    table.reset();
    epochs.reset();
  }
};

std::unique_ptr<YcsbData> MakeData(uint64_t seed) {
  auto d = std::make_unique<YcsbData>();
  d->keys = kKeys;
  d->epochs = std::make_unique<EpochManager>();
  d->table = std::make_unique<ConcurrentChainedTable>(kKeys, d->epochs.get());
  {
    // Loaded through the library's interleaved write path: one latched
    // upsert at a time would wait out a DRAM miss per key, which makes
    // set-up time follow the neighbours' memory traffic.
    std::vector<int64_t> keys(kKeys), values(kKeys);
    for (uint64_t i = 0; i < kKeys; ++i) {
      keys[i] = static_cast<int64_t>(i + 1);
      values[i] = LoadVal(keys[i]);
    }
    UpsertOp load(*d->table, keys.data(), values.data());
    amac::Run(ExecPolicy::kAmac, SchedulerParams{kInflight, 1, 0}, load,
              kKeys);
  }
  ZipfGenerator zipf(kKeys, kZipfTheta, SubSeed(seed, 1));
  // The 50/45/5 mix is exact in every pool, so seeds differ in keys but not
  // in how much of each kind they do; the client draws batches from the
  // pool in a seeded random order (Client::SubmitNext).
  d->batches.resize(kPoolBatches);
  for (uint64_t i = 0; i < kPoolBatches; ++i) {
    d->batches[i].type = i < kPoolBatches * 50 / 100   ? BatchType::kFind
                         : i < kPoolBatches * 95 / 100 ? BatchType::kUpsert
                                                       : BatchType::kErase;
  }
  for (Batch& b : d->batches) {
    b.keys.resize(kBatchKeys);
    for (int64_t& k : b.keys) k = static_cast<int64_t>(zipf.Next());
    if (b.type == BatchType::kUpsert) {
      for (const int64_t k : b.keys) b.payloads.push_back(UpVal(k));
    }
  }
  return d;
}

/// Per-slot read sink enforcing the payload rule.
struct FindSink {
  const int64_t* keys = nullptr;
  uint64_t found = 0;
  uint64_t missed = 0;
  uint64_t violations = 0;

  void Emit(uint64_t rid, int64_t payload) {
    ++found;
    const int64_t key = keys[rid];
    if (payload != LoadVal(key) && payload != UpVal(key)) ++violations;
  }
  void Miss(uint64_t) { ++missed; }
};

struct InFlight {
  QueryTicket ticket;
  uint64_t batch = 0;
  std::shared_ptr<std::vector<FindSink>> sinks;  ///< finds only
  double submit_us = 0;                          ///< tracer clock
};

struct Totals {
  uint64_t ops = 0, write_ops = 0, batches = 0;
  EngineStats engine, write_engine;
  std::vector<double> latency_ms, submit_us, queue_ms, execute_ms;
  std::vector<double> done_s;    ///< completion time of each batch
  std::vector<uint64_t> done_ops;  ///< key operations of each batch
  double sum_execute_s = 0, sum_latency_s = 0;
  uint64_t backlog_max = 0;
  double seconds = 0;

  /// Batches completed in each whole second of the run.
  std::vector<std::vector<size_t>> PerSecond() const {
    std::vector<std::vector<size_t>> buckets(static_cast<size_t>(seconds));
    for (size_t i = 0; i < done_s.size(); ++i) {
      const size_t second = static_cast<size_t>(done_s[i]);
      if (second < buckets.size()) buckets[second].push_back(i);
    }
    return buckets;
  }
  /// Median over whole seconds of the key operations completed in each: a
  /// transient stall of the shared host moves one second, not the metric.
  double SteadyThroughput() const {
    std::vector<double> rates;
    for (const auto& bucket : PerSecond()) {
      double ops_in_second = 0;
      for (const size_t i : bucket) ops_in_second += done_ops[i];
      rates.push_back(ops_in_second);
    }
    return rates.empty() ? (seconds > 0 ? ops / seconds : 0) : Median(rates);
  }
  /// Median over whole seconds of each second's latency percentile q.
  double SteadyPercentile(double q) const {
    std::vector<double> values;
    for (const auto& bucket : PerSecond()) {
      std::vector<double> sample;
      for (const size_t i : bucket) sample.push_back(latency_ms[i]);
      if (static_cast<double>(sample.size()) * (1 - q) >= 10) {
        values.push_back(Percentile(sample, q));
      }
    }
    return values.empty() ? Percentile(latency_ms, q) : Median(values);
  }
};

class Client {
 public:
  Client(YcsbData& d, QueryScheduler& sched, uint32_t inflight,
         uint64_t seed, std::vector<uint64_t>* executed, Report* report)
      : d_(d),
        sched_(sched),
        executed_(executed),
        report_(report),
        order_(SubSeed(seed, 2)) {
    options_.policy = ExecPolicy::kAmac;
    options_.params = SchedulerParams{inflight, 1, 0};
  }

  /// Closed loop with `depth` batches in flight until `seconds` pass.
  Totals Run(uint32_t depth, double seconds, Tracer* tracer) {
    Totals t;
    std::deque<InFlight> inflight;
    const double start = NowSeconds();
    start_ = start;
    auto more = [&] { return NowSeconds() - start < seconds; };
    while (inflight.size() < depth && more()) {
      inflight.push_back(SubmitNext(&t, tracer));
    }
    while (!inflight.empty()) {
      Complete(inflight.front(), &t, tracer);
      inflight.pop_front();
      if (more()) inflight.push_back(SubmitNext(&t, tracer));
    }
    t.seconds = NowSeconds() - start;
    return t;
  }

 private:
  InFlight SubmitNext(Totals* t, Tracer* tracer) {
    // A random draw, not a fixed cycle: a cycle repeats one seed-specific
    // sequence of batch kinds in flight together, and that sequence set
    // p99 (a third apart between two seeds, twice the random-order level).
    const uint64_t index = order_.NextBounded(d_.batches.size());
    const Batch& b = d_.batches[index];
    ConcurrentChainedTable* table = d_.table.get();
    const int64_t* keys = b.keys.data();
    InFlight f;
    f.batch = index;
    f.submit_us = tracer->NowUs();
    const double start = NowSeconds();
    switch (b.type) {
      case BatchType::kFind: {
        f.sinks = std::make_shared<std::vector<FindSink>>(
            sched_.SlotCount(options_));
        for (FindSink& sink : *f.sinks) sink.keys = keys;
        auto sinks = f.sinks;
        f.ticket = sched_.SubmitOp(
            b.keys.size(),
            [table, keys, sinks](uint32_t slot) {
              return ConcurrentFindOp<FindSink>(*table, keys, (*sinks)[slot]);
            },
            options_);
        break;
      }
      case BatchType::kUpsert: {
        const int64_t* payloads = b.payloads.data();
        f.ticket = sched_.SubmitOp(
            b.keys.size(),
            [table, keys, payloads](uint32_t) {
              return UpsertOp(*table, keys, payloads);
            },
            options_);
        break;
      }
      case BatchType::kErase:
        f.ticket = sched_.SubmitOp(
            b.keys.size(),
            [table, keys](uint32_t) { return EraseOp(*table, keys); },
            options_);
        break;
    }
    t->submit_us.push_back((NowSeconds() - start) * 1e6);
    return f;
  }

  void Complete(const InFlight& f, Totals* t, Tracer* tracer) {
    const QueryStats q = sched_.Wait(f.ticket);
    const Batch& b = d_.batches[f.batch];
    ++report_->attempted;
    bool ok = q.outcome == QueryOutcome::kServed &&
              q.run.inputs == b.keys.size();
    if (b.type == BatchType::kFind && ok) {
      uint64_t found = 0, missed = 0, violations = 0;
      for (const FindSink& sink : *f.sinks) {
        found += sink.found;
        missed += sink.missed;
        violations += sink.violations;
      }
      ok = violations == 0 && found + missed == b.keys.size();
    }
    if (!ok) {
      report_->Fail(std::string("ycsb-rw: ") + kTypeNames[static_cast<int>(
                                                   b.type)] +
                    " batch failed its check");
    }
    ++(*executed_)[f.batch];
    ++t->batches;
    t->ops += b.keys.size();
    t->engine.Merge(q.run.engine);
    if (b.type != BatchType::kFind) {
      t->write_ops += b.keys.size();
      t->write_engine.Merge(q.run.engine);
    }
    t->latency_ms.push_back(q.latency_seconds * 1e3);
    t->done_s.push_back(NowSeconds() - start_);
    t->done_ops.push_back(b.keys.size());
    t->queue_ms.push_back(q.queue_seconds * 1e3);
    t->execute_ms.push_back(q.run.seconds * 1e3);
    t->sum_execute_s += q.run.seconds;
    t->sum_latency_s += q.latency_seconds;
    const uint64_t retired = d_.epochs->retired();
    const uint64_t reclaimed = d_.epochs->reclaimed();
    t->backlog_max =
        std::max(t->backlog_max, retired > reclaimed ? retired - reclaimed : 0);
    if (tracer->enabled()) {
      const uint64_t root = tracer->Record(
          std::string("query.") + kTypeNames[static_cast<int>(b.type)],
          "ycsb-rw", f.submit_us, q.latency_seconds * 1e6);
      tracer->Record("server.queue", "server", f.submit_us,
                     q.queue_seconds * 1e6, root);
      tracer->Record("core.execute", "core",
                     f.submit_us + q.queue_seconds * 1e6, q.run.seconds * 1e6,
                     root);
    }
  }

  YcsbData& d_;
  QueryScheduler& sched_;
  std::vector<uint64_t>* executed_;
  Report* report_;
  QueryOptions options_;
  Rng order_;
  double start_ = 0;  ///< start of the current Run
};

/// Post-drain checks: audit, live state against the sequential replay on
/// keys no executed erase batch touched, and leak accounting.
void CheckFinalState(YcsbData& d, const std::vector<uint64_t>& executed,
                     Report* report) {
  const auto audit = d.table->AuditQuiesced();
  if (!audit.ok) report->Fail("ycsb-rw: table audit failed after drain");
  std::vector<uint8_t> erased(d.keys + 1, 0), updated(d.keys + 1, 0);
  for (size_t i = 0; i < d.batches.size(); ++i) {
    if (executed[i] == 0) continue;
    const Batch& b = d.batches[i];
    if (b.type == BatchType::kFind) continue;
    for (const int64_t k : b.keys) {
      (b.type == BatchType::kErase ? erased : updated)[k] = 1;
    }
  }
  std::vector<Tuple> live;
  d.table->CollectLive(&live);
  std::vector<int64_t> value(d.keys + 1, BucketNode::kEmptySlotKey);
  uint64_t bad = 0;
  for (const Tuple& t : live) {
    if (t.key < 1 || t.key > static_cast<int64_t>(d.keys) ||
        value[t.key] != BucketNode::kEmptySlotKey) {
      ++bad;
      continue;
    }
    value[t.key] = t.payload;
  }
  for (uint64_t k = 1; k <= d.keys; ++k) {
    const int64_t key = static_cast<int64_t>(k);
    if (erased[k]) {
      if (value[k] != BucketNode::kEmptySlotKey && value[k] != LoadVal(key) &&
          value[k] != UpVal(key)) {
        ++bad;
      }
      continue;
    }
    if (value[k] != (updated[k] ? UpVal(key) : LoadVal(key))) ++bad;
  }
  ++report->attempted;
  if (bad > 0) {
    report->Fail("ycsb-rw: " + std::to_string(bad) +
                 " keys diverge from the sequential replay");
  }
  d.epochs->ReclaimAll();
  if (d.epochs->retired() != d.epochs->reclaimed()) {
    report->Fail("ycsb-rw: reclamation leak (retired != reclaimed)");
  }
}

void ReportLayers(const Totals& t, const EpochManager& epochs,
                  const ServingStats& serving, Report* report) {
  const double lookups =
      static_cast<double>(std::max<uint64_t>(1, t.engine.lookups));
  report->Add("core.steps_per_input", t.engine.steps / lookups, "ratio");
  report->Add("core.parks_per_input", t.engine.parks / lookups, "ratio");
  report->Add("core.retries_per_input", t.engine.retries / lookups, "ratio");
  report->Add("core.vec_fallback_share", t.engine.vec_fallbacks / lookups,
              "ratio");
  report->Add("server.submit_us.p50", Percentile(t.submit_us, 0.5), "us");
  report->Add("server.submit_us.p99", Percentile(t.submit_us, 0.99), "us");
  report->Add("server.queue_ms.p50", Percentile(t.queue_ms, 0.5), "ms");
  report->Add("server.queue_ms.p99", Percentile(t.queue_ms, 0.99), "ms");
  report->Add("server.execute_ms.p50", Percentile(t.execute_ms, 0.5), "ms");
  report->Add("server.overhead_share",
              t.sum_latency_s > 0 ? 1 - t.sum_execute_s / t.sum_latency_s : 0,
              "ratio");
  report->Add("server.rejected", static_cast<double>(serving.rejected),
              "count");
  report->Add("server.shed", static_cast<double>(serving.shed), "count");
  report->Add("server.deadline_missed",
              static_cast<double>(serving.deadline_missed), "count");
  report->Add("hashtable.write.retry_share",
              t.write_engine.steps
                  ? static_cast<double>(t.write_engine.retries) /
                        static_cast<double>(t.write_engine.steps)
                  : 0,
              "ratio");
  report->Add("hashtable.write.ops", static_cast<double>(t.write_ops),
              "count");
  report->Add("epoch.retired", static_cast<double>(epochs.retired()), "count");
  report->Add("epoch.reclaimed", static_cast<double>(epochs.reclaimed()),
              "count");
  report->Add("epoch.advances", static_cast<double>(epochs.advances()),
              "count");
  report->Add("epoch.backlog_max", static_cast<double>(t.backlog_max),
              "count");
}

}  // namespace

void RunYcsbRw(const Args& args, Report* report, Tracer* tracer) {
  std::unique_ptr<YcsbData> data;
  std::vector<double> setup_times;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    data.reset();
    const double start = NowSeconds();
    data = MakeData(args.seed);
    setup_times.push_back(NowSeconds() - start);
  }
  YcsbData& d = *data;
  std::printf("ycsb-rw: %llu keys, %llu batches of %llu keys, depth %u\n",
              static_cast<unsigned long long>(kKeys),
              static_cast<unsigned long long>(kPoolBatches),
              static_cast<unsigned long long>(kBatchKeys), kDepth);

  std::vector<uint64_t> executed(d.batches.size(), 0);
  ServingStats serving;
  Totals measured, traced;
  {
    QuerySchedulerOptions sopts;
    sopts.num_workers = kWorkers;
    QueryScheduler sched(sopts);
    EpochManager* epochs = d.epochs.get();
    sched.pool().SetIdleTask([epochs] { epochs->AdvanceAndReclaim(); });
    Client client(d, sched, kInflight, args.seed, &executed, report);
    Tracer off(false);
    client.Run(kDepth, kWarmupSeconds, &off);
    measured = client.Run(kDepth, args.seconds, &off);
    if (args.trace) traced = client.Run(kDepth, args.seconds, tracer);
    sched.Drain();
    serving = sched.serving_stats();
  }  // scheduler gone: every op and its epoch guard released
  CheckFinalState(d, executed, report);

  report->Add("throughput_ops_s", measured.SteadyThroughput(), "1/s");
  report->Add("latency_p50_ms", measured.SteadyPercentile(0.5), "ms");
  report->Add("latency_p99_ms", measured.SteadyPercentile(0.99), "ms");
  report->Add("setup_s", Median(setup_times), "s");
  std::printf("ycsb-rw: %llu batches, %llu key ops in %.2f s\n",
              static_cast<unsigned long long>(measured.batches),
              static_cast<unsigned long long>(measured.ops), measured.seconds);
  std::printf("ycsb-rw: p99 ms by second:");
  for (const auto& bucket : measured.PerSecond()) {
    std::vector<double> sample;
    for (const size_t i : bucket) sample.push_back(measured.latency_ms[i]);
    std::printf(" %.3f", Percentile(sample, 0.99));
  }
  std::printf("\n");
  if (args.trace) {
    report->Add("trace.overhead_share",
                traced.SteadyThroughput() > 0
                    ? measured.SteadyThroughput() / traced.SteadyThroughput() - 1
                    : 0,
                "ratio");
    ReportLayers(traced, *d.epochs, serving, report);
  }
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
