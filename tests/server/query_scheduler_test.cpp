// QueryScheduler unit and stress tests.
//
// The load-bearing property (ISSUE 4): N concurrent mixed queries
// multiplexed over one shared pool must each produce a result BITWISE
// IDENTICAL to their solo sequential run, for every ExecPolicy and pool
// width, and the scheduler's aggregate counters (morsels, engine parks)
// must equal the sum of the per-query stats.  Plus: ThreadPool task-queue
// semantics, admission control (FIFO and EDF), work-conserving
// Wait(), and the latency split accounting.
#include "server/query_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "graph/csr.h"
#include "graph/graph_ops.h"
#include "groupby/groupby_ops.h"
#include "join/hash_join.h"
#include "join/join_ops.h"
#include "join/sink.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"
#include "skiplist/skiplist_ops.h"

namespace amac {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool task queue
// ---------------------------------------------------------------------------

TEST(ThreadPoolTaskTest, TryRunTaskDrainsInFifoOrder) {
  ThreadPool pool(1);  // no workers: tasks run only via TryRunTask
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(pool.queued_tasks(), 3u);
  EXPECT_TRUE(pool.TryRunTask());
  EXPECT_TRUE(pool.TryRunTask());
  EXPECT_TRUE(pool.TryRunTask());
  EXPECT_FALSE(pool.TryRunTask());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPoolTaskTest, WorkersDrainSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  while (ran.load() < 64) {
    pool.TryRunTask();  // help, and bound the wait
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------------------
// Scheduler basics
// ---------------------------------------------------------------------------

TEST(QuerySchedulerTest, SingleQueryMatchesExecutorRun) {
  const Relation r = MakeDenseUniqueRelation(2048, 401);
  const Relation s = MakeForeignKeyRelation(4000, 2048, 402);
  ChainedHashTable table(r.size(), ChainedHashTable::Options{});
  BuildTableUnsync(r, &table);

  Executor exec(
      ExecConfig{ExecPolicy::kAmac, SchedulerParams{8, 1, 0}, 4, 0});
  const RunStats expected = exec.Run(Scan(s).Then(Probe<true>(table)));

  QueryScheduler sched(QuerySchedulerOptions{4, 0, AdmissionOrder::kFifo});
  QueryOptions options;
  options.policy = ExecPolicy::kAmac;
  options.params = SchedulerParams{8, 1, 0};
  const QueryTicket ticket =
      Submit(sched, Scan(s).Then(Probe<true>(table)), options);
  const QueryStats q = sched.Wait(ticket);

  EXPECT_EQ(q.run.inputs, s.size());
  EXPECT_EQ(q.run.outputs, expected.outputs);
  EXPECT_EQ(q.run.checksum, expected.checksum);
  EXPECT_EQ(q.run.engine.lookups, s.size());
  EXPECT_GT(q.run.morsels, 0u);
  EXPECT_EQ(q.run.threads, 4u);
}

TEST(QuerySchedulerTest, WaitPumpsTasksOnSingleThreadPool) {
  // A 1-worker scheduler has NO background workers; Wait() itself must
  // drain the queue or this test would hang.
  const Relation rel = MakeDenseUniqueRelation(3000, 403);
  QueryScheduler sched(QuerySchedulerOptions{1, 0, AdmissionOrder::kFifo});
  const QueryTicket ticket = Submit(sched, Scan(rel), QueryOptions{});
  const QueryStats q = sched.Wait(ticket);
  EXPECT_EQ(q.run.outputs, rel.size());
}

TEST(QuerySchedulerTest, EmptyQueryCompletes) {
  const Relation empty;
  QueryScheduler sched(QuerySchedulerOptions{2, 0, AdmissionOrder::kFifo});
  const QueryTicket ticket = Submit(sched, Scan(empty), QueryOptions{});
  const QueryStats q = sched.Wait(ticket);
  EXPECT_EQ(q.run.inputs, 0u);
  EXPECT_EQ(q.run.outputs, 0u);
  EXPECT_GT(q.latency_seconds, 0.0);
}

TEST(QuerySchedulerTest, LatencySplitIsConsistent) {
  const Relation rel = MakeDenseUniqueRelation(20000, 404);
  QueryScheduler sched(QuerySchedulerOptions{2, 0, AdmissionOrder::kFifo});
  const QueryTicket ticket = Submit(sched, Scan(rel), QueryOptions{});
  const QueryStats q = sched.Wait(ticket);
  EXPECT_GT(q.latency_seconds, 0.0);
  EXPECT_GE(q.latency_seconds, q.run.seconds);
  EXPECT_GE(q.latency_seconds, q.queue_seconds);
  EXPECT_EQ(q.run.dispatch_seconds, q.latency_seconds);
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.submitted, 1u);
  EXPECT_EQ(serving.completed, 1u);
  EXPECT_GT(serving.p50_latency_seconds, 0.0);
  EXPECT_GE(serving.p99_latency_seconds, serving.p50_latency_seconds);
  EXPECT_GE(serving.max_latency_seconds, serving.p99_latency_seconds);
}

TEST(QuerySchedulerTest, LatencySplitSumsUnderRacingPumps) {
  // Every slot of a query starts a pump task, and they race to run the
  // first morsel.  The queue wait is stamped before the race is decided and
  // the execute span is the rest of the latency, so the split sums exactly
  // and the execute span never shrinks to the tail of the query.
  const Relation rel = MakeDenseUniqueRelation(4096, 406);
  const Relation empty;
  QueryScheduler sched(QuerySchedulerOptions{4, 0, AdmissionOrder::kFifo});
  QueryOptions options;
  options.morsel_size = 256;  // 16 morsels over 4 slots
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 300; ++i) {
    tickets.push_back(
        Submit(sched, Scan(i % 10 == 0 ? empty : rel), options));
  }
  for (int i = 0; i < 300; ++i) {
    const QueryStats q = sched.Wait(tickets[i]);
    ASSERT_EQ(q.outcome, QueryOutcome::kServed);
    EXPECT_NEAR(q.queue_seconds + q.run.seconds, q.latency_seconds, 1e-9);
    if (i % 10 != 0) {
      EXPECT_GT(q.run.seconds, 0.0);
    }
  }
}

TEST(QuerySchedulerTest, FinishedTurnsTrueAfterWait) {
  const Relation rel = MakeDenseUniqueRelation(1000, 405);
  QueryScheduler sched(QuerySchedulerOptions{2, 0, AdmissionOrder::kFifo});
  const QueryTicket ticket = Submit(sched, Scan(rel), QueryOptions{});
  sched.Wait(ticket);
  EXPECT_TRUE(sched.Finished(ticket));
}

TEST(QuerySchedulerTest, DrainCompletesEverythingWithoutWait) {
  const Relation rel = MakeDenseUniqueRelation(5000, 406);
  QueryScheduler sched(QuerySchedulerOptions{2, 1, AdmissionOrder::kFifo});
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(Submit(sched, Scan(rel), QueryOptions{}));
  }
  sched.Drain();
  for (const QueryTicket& t : tickets) EXPECT_TRUE(sched.Finished(t));
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.submitted, 5u);
  EXPECT_EQ(serving.completed, 5u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Pipelines whose first row stamps a shared sequence counter: with a
/// 1-worker scheduler nothing executes until Wait() pumps, so the stamp
/// order IS the admission order.
struct TouchOrder {
  std::atomic<int> next{0};
  std::atomic<int> touched[8];
  TouchOrder() {
    for (auto& t : touched) t.store(-1);
  }
};

QueryTicket SubmitStamped(QueryScheduler& sched, const Relation& rel,
                          std::shared_ptr<TouchOrder> order, int id,
                          const QueryOptions& options) {
  // Single pump thread in these tests (1-worker scheduler, Drain() runs
  // everything), so a plain first-touch check is race-free.
  auto stamp = [order, id](const Tuple& t) {
    if (order->touched[id].load(std::memory_order_relaxed) == -1) {
      order->touched[id].store(order->next.fetch_add(1));
    }
    return t;
  };
  return Submit(sched, Scan(rel).Then(Map(stamp)), options);
}

TEST(QuerySchedulerTest, FifoAdmissionRunsInSubmissionOrder) {
  const Relation rel = MakeDenseUniqueRelation(512, 407);
  auto order = std::make_shared<TouchOrder>();
  QueryScheduler sched(QuerySchedulerOptions{1, 1, AdmissionOrder::kFifo});
  // Two tenants interleaved: admission ignores the tenant, the accounting
  // keys on it.
  QueryOptions tenant_a;
  tenant_a.tenant = 1;
  QueryOptions tenant_b;
  tenant_b.tenant = 2;
  for (int id = 0; id < 4; ++id) {
    SubmitStamped(sched, rel, order, id, id % 2 == 0 ? tenant_a : tenant_b);
  }
  sched.Drain();
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(order->touched[id].load(), id) << "query " << id;
  }
  // Per-tenant accounting surfaced in ServingStats, ascending tenant id.
  const ServingStats serving = sched.serving_stats();
  ASSERT_EQ(serving.tenants.size(), 2u);
  EXPECT_EQ(serving.tenants[0].tenant, 1u);
  EXPECT_EQ(serving.tenants[0].submitted, 2u);
  EXPECT_EQ(serving.tenants[0].completed, 2u);
  EXPECT_EQ(serving.tenants[1].tenant, 2u);
  EXPECT_EQ(serving.tenants[1].submitted, 2u);
  EXPECT_EQ(serving.tenants[1].completed, 2u);
}

// ---------------------------------------------------------------------------
// SLO-aware admission: rejection, shedding, EDF
// ---------------------------------------------------------------------------

TEST(QuerySchedulerSloTest, BoundedPendingRejectsOverflow) {
  // 1-worker scheduler: nothing executes until Drain() pumps, so the
  // queue states are deterministic.  Cap 1 inflight + 2 pending; the 4th
  // and 5th submissions must be rejected immediately.
  const Relation rel = MakeDenseUniqueRelation(512, 430);
  QuerySchedulerOptions sopts{1, 1, AdmissionOrder::kFifo};
  sopts.max_pending = 2;
  QueryScheduler sched(sopts);
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(Submit(sched, Scan(rel), QueryOptions{}));
  }
  // Rejection is decided at submit time: tickets 3 and 4 are already done
  // before anything has executed.
  EXPECT_FALSE(sched.Finished(tickets[0]));
  EXPECT_TRUE(sched.Finished(tickets[3]));
  EXPECT_TRUE(sched.Finished(tickets[4]));
  sched.Drain();
  int served = 0, rejected = 0;
  for (const QueryTicket& t : tickets) {
    const QueryStats q = sched.Wait(t);
    if (q.outcome == QueryOutcome::kRejected) {
      ++rejected;
      // A rejected query never executed: all-zero run, latency is the
      // submit-to-refusal span, and it can never have met a deadline.
      EXPECT_EQ(q.run.inputs, 0u);
      EXPECT_EQ(q.run.outputs, 0u);
      EXPECT_EQ(q.run.morsels, 0u);
      EXPECT_EQ(q.run.seconds, 0.0);
      EXPECT_FALSE(q.deadline_met);
      EXPECT_GE(q.latency_seconds, 0.0);
    } else {
      EXPECT_EQ(q.outcome, QueryOutcome::kServed);
      EXPECT_EQ(q.run.outputs, rel.size());
      ++served;
    }
  }
  EXPECT_EQ(served, 3);
  EXPECT_EQ(rejected, 2);
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.submitted, 5u);
  EXPECT_EQ(serving.completed, 3u);
  EXPECT_EQ(serving.rejected, 2u);
  EXPECT_EQ(serving.shed, 0u);
  EXPECT_EQ(serving.completed + serving.rejected + serving.shed,
            serving.submitted);
}

TEST(QuerySchedulerSloTest, ExpiredPendingQueriesAreShed) {
  const Relation rel = MakeDenseUniqueRelation(2000, 431);
  QuerySchedulerOptions sopts{1, 1, AdmissionOrder::kDeadline};
  sopts.shed_expired = true;
  QueryScheduler sched(sopts);
  const QueryTicket admitted = Submit(sched, Scan(rel), QueryOptions{});
  QueryOptions doomed;
  doomed.deadline_seconds = 1e-9;  // expired before it can be admitted
  const QueryTicket queued = Submit(sched, Scan(rel), doomed);
  QueryOptions fine;
  fine.deadline_seconds = 3600.0;
  const QueryTicket kept = Submit(sched, Scan(rel), fine);
  sched.Drain();
  EXPECT_EQ(sched.Wait(admitted).outcome, QueryOutcome::kServed);
  const QueryStats shed = sched.Wait(queued);
  EXPECT_EQ(shed.outcome, QueryOutcome::kShed);
  EXPECT_EQ(shed.run.outputs, 0u);
  EXPECT_FALSE(shed.deadline_met);
  EXPECT_EQ(shed.deadline_seconds, 1e-9);
  const QueryStats ok = sched.Wait(kept);
  EXPECT_EQ(ok.outcome, QueryOutcome::kServed);
  EXPECT_TRUE(ok.deadline_met);
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.submitted, 3u);
  EXPECT_EQ(serving.completed, 2u);
  EXPECT_EQ(serving.shed, 1u);
  EXPECT_EQ(serving.goodput_queries, 2u);
  EXPECT_EQ(serving.deadline_missed, 0u);
}

TEST(QuerySchedulerSloTest, DeadlineAdmissionIsEarliestFirst) {
  const Relation rel = MakeDenseUniqueRelation(512, 432);
  auto order = std::make_shared<TouchOrder>();
  QueryScheduler sched(
      QuerySchedulerOptions{1, 1, AdmissionOrder::kDeadline});
  // id 0 admits immediately (cap 1); the rest queue: id1 loose deadline,
  // id2 tight deadline, id3 none.  EDF admits 2, then 1, then 3.
  QueryOptions loose;
  loose.deadline_seconds = 3600.0;
  QueryOptions tight;
  tight.deadline_seconds = 60.0;
  SubmitStamped(sched, rel, order, 0, QueryOptions{});
  SubmitStamped(sched, rel, order, 1, loose);
  SubmitStamped(sched, rel, order, 2, tight);
  SubmitStamped(sched, rel, order, 3, QueryOptions{});
  sched.Drain();
  EXPECT_EQ(order->touched[0].load(), 0);
  EXPECT_EQ(order->touched[2].load(), 1);
  EXPECT_EQ(order->touched[1].load(), 2);
  EXPECT_EQ(order->touched[3].load(), 3);
}

TEST(QuerySchedulerSloTest, DeadlineMissAccounting) {
  // No shedding, no rejection: an impossible deadline is still SERVED,
  // just counted as a miss, never as goodput.
  const Relation rel = MakeDenseUniqueRelation(4000, 435);
  QueryScheduler sched(QuerySchedulerOptions{2, 0, AdmissionOrder::kFifo});
  QueryOptions impossible;
  impossible.deadline_seconds = 1e-12;
  QueryOptions generous;
  generous.deadline_seconds = 3600.0;
  const QueryStats missed =
      sched.Wait(Submit(sched, Scan(rel), impossible));
  const QueryStats met = sched.Wait(Submit(sched, Scan(rel), generous));
  const QueryStats no_deadline =
      sched.Wait(Submit(sched, Scan(rel), QueryOptions{}));
  EXPECT_EQ(missed.outcome, QueryOutcome::kServed);
  EXPECT_FALSE(missed.deadline_met);
  EXPECT_EQ(missed.run.outputs, rel.size());  // still did the work
  EXPECT_TRUE(met.deadline_met);
  EXPECT_TRUE(no_deadline.deadline_met);  // deadline-free counts as goodput
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.completed, 3u);
  EXPECT_EQ(serving.goodput_queries, 2u);
  EXPECT_EQ(serving.deadline_missed, 1u);
  EXPECT_EQ(serving.goodput_queries + serving.deadline_missed,
            serving.completed);
}

TEST(QuerySchedulerSloTest, RejectedQueriesDoNotLeakIntoServedSums) {
  // The ServingStats merge invariant: counter sums (morsels, engine) and
  // latency percentiles must cover SERVED queries only, bitwise equal to
  // summing the per-query stats of the served subset.
  const Relation rel = MakeDenseUniqueRelation(2048, 436);
  QuerySchedulerOptions sopts{1, 1, AdmissionOrder::kFifo};
  sopts.max_pending = 1;
  QueryScheduler sched(sopts);
  QueryOptions options;
  options.morsel_size = 256;
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(Submit(sched, Scan(rel), options));
  }
  sched.Drain();
  uint64_t served_morsels = 0;
  EngineStats served_engine;
  uint64_t served = 0, rejected = 0;
  double max_served_latency = 0;
  for (const QueryTicket& t : tickets) {
    const QueryStats q = sched.Wait(t);
    if (q.outcome == QueryOutcome::kServed) {
      ++served;
      served_morsels += q.run.morsels;
      served_engine.Merge(q.run.engine);
      max_served_latency = std::max(max_served_latency, q.latency_seconds);
    } else {
      ++rejected;
      EXPECT_EQ(q.run.morsels, 0u);
      EXPECT_EQ(q.run.engine.steps, 0u);
    }
  }
  ASSERT_EQ(served, 2u);   // 1 inflight + 1 pending
  ASSERT_EQ(rejected, 4u);
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.morsels, served_morsels);
  EXPECT_EQ(serving.engine.steps, served_engine.steps);
  EXPECT_EQ(serving.engine.lookups, served_engine.lookups);
  EXPECT_EQ(serving.max_latency_seconds, max_served_latency);
  // Percentiles over 2 served queries: both within the served latency
  // range, never the (earlier, smaller) submit-to-refusal spans.
  EXPECT_GT(serving.p50_latency_seconds, 0.0);
  EXPECT_LE(serving.p99_latency_seconds, max_served_latency);
}

// ---------------------------------------------------------------------------
// Concurrency stress: mixed queries vs solo sequential oracles
// ---------------------------------------------------------------------------

struct StressWorkload {
  Relation r, s, gb_input, idx_probe;
  std::unique_ptr<ChainedHashTable> table;
  std::unique_ptr<SkipList> slist;
  std::unique_ptr<CsrGraph> graph;
  uint64_t group_capacity = 0;

  struct Oracle {
    uint64_t outputs = 0;
    uint64_t checksum = 0;
  };
  Oracle join, lookup, walks, groupby, fused;
};

StressWorkload MakeStressWorkload() {
  StressWorkload w;
  const uint64_t n = 4096;
  w.r = MakeDenseUniqueRelation(n, 411);
  w.s = MakeForeignKeyRelation(n, n, 412);
  w.gb_input = MakeZipfRelation(n, n / 8, 0.7, 413);
  w.idx_probe = MakeZipfRelation(n, 2 * n, 0.4, 414);
  w.table = std::make_unique<ChainedHashTable>(n,
                                               ChainedHashTable::Options{});
  BuildTableUnsync(w.r, w.table.get());
  w.slist = std::make_unique<SkipList>(n);
  Rng rng(415);
  for (const Tuple& t : w.r) w.slist->InsertUnsync(t.key, t.payload, rng);
  CsrGraph::Options graph_options;
  graph_options.num_vertices = 1024;
  graph_options.out_degree = 6;
  graph_options.seed = 416;
  w.graph = std::make_unique<CsrGraph>(graph_options);
  w.group_capacity = n + 1;

  // Solo sequential oracles (schedule-independent results).
  Executor solo(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  {
    const RunStats run = solo.Run(Scan(w.s).Then(Probe<true>(*w.table)));
    w.join = {run.outputs, run.checksum};
  }
  {
    const RunStats run =
        solo.Run(Scan(w.idx_probe).Then(LookupSkipList(*w.slist)));
    w.lookup = {run.outputs, run.checksum};
  }
  {
    const RunStats run = solo.Run(Walks(*w.graph, 512, 10, 417));
    w.walks = {run.outputs, run.checksum};
  }
  {
    AggregateTable agg(w.group_capacity, AggregateTable::Options{});
    solo.Run(Scan(w.gb_input).Then(Aggregate(agg)));
    w.groupby = {agg.CountGroups(), agg.Checksum()};
  }
  {
    AggregateTable agg(w.group_capacity, AggregateTable::Options{});
    solo.Run(Scan(w.s).Then(Probe<true>(*w.table)).Then(Aggregate(agg)));
    w.fused = {agg.CountGroups(), agg.Checksum()};
  }
  return w;
}

class SchedulerStressTest : public ::testing::TestWithParam<ExecPolicy> {};

TEST_P(SchedulerStressTest, ConcurrentMixedQueriesMatchSoloOracles) {
  const ExecPolicy policy = GetParam();
  const StressWorkload w = MakeStressWorkload();

  for (uint32_t workers : {1u, 2u, 4u}) {
    QueryScheduler sched(
        QuerySchedulerOptions{workers, 0, AdmissionOrder::kFifo});
    QueryOptions options;
    options.policy = policy;
    options.params = SchedulerParams{8, 2, 0};
    options.morsel_size = 256;  // many morsels -> real interleaving

    // Submit everything up front so all queries are genuinely in flight
    // together, then wait.  5 kinds x 2 instances = 10 concurrent queries.
    std::vector<QueryTicket> tickets;
    std::vector<std::shared_ptr<AggregateTable>> aggs;
    std::vector<int> kinds;
    for (int instance = 0; instance < 2; ++instance) {
      tickets.push_back(
          Submit(sched, Scan(w.s).Then(Probe<true>(*w.table)), options));
      kinds.push_back(0);
      tickets.push_back(Submit(
          sched, Scan(w.idx_probe).Then(LookupSkipList(*w.slist)), options));
      kinds.push_back(1);
      tickets.push_back(Submit(sched, Walks(*w.graph, 512, 10, 417),
                               options));
      kinds.push_back(2);
      auto gb_agg = std::make_shared<AggregateTable>(
          w.group_capacity, AggregateTable::Options{});
      tickets.push_back(Submit(
          sched, Scan(w.gb_input).Then(Aggregate(*gb_agg)), options));
      kinds.push_back(3);
      aggs.push_back(gb_agg);
      auto fused_agg = std::make_shared<AggregateTable>(
          w.group_capacity, AggregateTable::Options{});
      tickets.push_back(
          Submit(sched,
                 Scan(w.s).Then(Probe<true>(*w.table)).Then(
                     Aggregate(*fused_agg)),
                 options));
      kinds.push_back(4);
      aggs.push_back(fused_agg);
    }

    uint64_t total_morsels = 0;
    EngineStats total_engine;
    size_t agg_index = 0;
    for (size_t i = 0; i < tickets.size(); ++i) {
      const QueryStats q = sched.Wait(tickets[i]);
      const std::string label = std::string(ExecPolicyName(policy)) +
                                " workers=" + std::to_string(workers) +
                                " query=" + std::to_string(i);
      total_morsels += q.run.morsels;
      total_engine.Merge(q.run.engine);
      EXPECT_GT(q.latency_seconds, 0.0) << label;
      switch (kinds[i]) {
        case 0:
          EXPECT_EQ(q.run.outputs, w.join.outputs) << label;
          EXPECT_EQ(q.run.checksum, w.join.checksum) << label;
          EXPECT_EQ(q.run.engine.lookups, w.s.size()) << label;
          break;
        case 1:
          EXPECT_EQ(q.run.outputs, w.lookup.outputs) << label;
          EXPECT_EQ(q.run.checksum, w.lookup.checksum) << label;
          break;
        case 2:
          EXPECT_EQ(q.run.outputs, w.walks.outputs) << label;
          EXPECT_EQ(q.run.checksum, w.walks.checksum) << label;
          break;
        case 3:
          EXPECT_EQ(aggs[agg_index]->CountGroups(), w.groupby.outputs)
              << label;
          EXPECT_EQ(aggs[agg_index]->Checksum(), w.groupby.checksum)
              << label;
          ++agg_index;
          break;
        default:
          EXPECT_EQ(aggs[agg_index]->CountGroups(), w.fused.outputs)
              << label;
          EXPECT_EQ(aggs[agg_index]->Checksum(), w.fused.checksum) << label;
          ++agg_index;
          break;
      }
    }

    // Aggregate accounting: scheduler totals equal the per-query sums.
    const ServingStats serving = sched.serving_stats();
    EXPECT_EQ(serving.submitted, tickets.size());
    EXPECT_EQ(serving.completed, tickets.size());
    EXPECT_EQ(serving.morsels, total_morsels);
    EXPECT_EQ(serving.engine.lookups, total_engine.lookups);
    EXPECT_EQ(serving.engine.steps, total_engine.steps);
    EXPECT_EQ(serving.engine.parks, total_engine.parks);
    EXPECT_EQ(serving.engine.retries, total_engine.retries);
    EXPECT_EQ(serving.engine.noops, total_engine.noops);
  }
}

TEST_P(SchedulerStressTest, ConcurrentClientsWithAdmissionCap) {
  // 4 client threads x 3 queries over a 2-worker pool with max_inflight 2:
  // admission queueing, client pumping, and completion all race here.
  const ExecPolicy policy = GetParam();
  const StressWorkload w = MakeStressWorkload();
  QueryScheduler sched(
      QuerySchedulerOptions{2, 2, AdmissionOrder::kFifo});
  QueryOptions options;
  options.policy = policy;
  options.params = SchedulerParams{8, 2, 0};
  options.morsel_size = 512;

  std::atomic<uint64_t> divergent{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        const QueryTicket ticket =
            Submit(sched, Scan(w.s).Then(Probe<true>(*w.table)), options);
        const QueryStats q = sched.Wait(ticket);
        if (q.run.outputs != w.join.outputs ||
            q.run.checksum != w.join.checksum) {
          divergent.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(divergent.load(), 0u);
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.submitted, 12u);
  EXPECT_EQ(serving.completed, 12u);
  EXPECT_GT(serving.p50_latency_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedulerStressTest,
                         ::testing::ValuesIn(kAllExecPolicies),
                         [](const auto& info) {
                           return ExecPolicyName(info.param);
                         });

TEST(QuerySchedulerOpenLoopTest, ConcurrentSubmittersVsSoloOracles) {
  // Open-loop stress (run under TSan in CI): submitter threads fire
  // queries WITHOUT waiting for completions while workers serve, racing
  // submit-side rejection against completion-side admission and
  // shedding.  Every served query must still match the solo oracle, and
  // the outcome partition must exactly cover every submission.
  const StressWorkload w = MakeStressWorkload();
  QuerySchedulerOptions sopts{4, 3, AdmissionOrder::kDeadline};
  sopts.max_pending = 4;
  sopts.shed_expired = true;
  QueryScheduler sched(sopts);
  QueryOptions options;
  options.params = SchedulerParams{8, 2, 0};
  options.morsel_size = 512;
  options.deadline_seconds = 0.5;  // generous; shedding stays possible

  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 20;
  std::mutex tickets_mu;
  std::vector<QueryTicket> tickets;
  std::vector<std::thread> submitters;
  for (int thread_id = 0; thread_id < kSubmitters; ++thread_id) {
    submitters.emplace_back([&, thread_id] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        QueryOptions submit_options = options;
        submit_options.tenant = static_cast<uint32_t>(thread_id);
        const QueryTicket ticket = Submit(
            sched, Scan(w.s).Then(Probe<true>(*w.table)), submit_options);
        std::lock_guard<std::mutex> lock(tickets_mu);
        tickets.push_back(ticket);
      }
    });
  }
  for (auto& t : submitters) t.join();
  sched.Drain();

  uint64_t served = 0, rejected = 0, shed = 0, goodput = 0, divergent = 0;
  for (const QueryTicket& ticket : tickets) {
    const QueryStats q = sched.Wait(ticket);
    switch (q.outcome) {
      case QueryOutcome::kServed:
        ++served;
        if (q.deadline_met) ++goodput;
        if (q.run.outputs != w.join.outputs ||
            q.run.checksum != w.join.checksum) {
          ++divergent;
        }
        break;
      case QueryOutcome::kRejected:
        ++rejected;
        EXPECT_EQ(q.run.morsels, 0u);
        break;
      case QueryOutcome::kShed:
        ++shed;
        EXPECT_EQ(q.run.morsels, 0u);
        break;
    }
  }
  EXPECT_EQ(divergent, 0u);
  const ServingStats serving = sched.serving_stats();
  EXPECT_EQ(serving.submitted,
            static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(serving.completed, served);
  EXPECT_EQ(serving.rejected, rejected);
  EXPECT_EQ(serving.shed, shed);
  EXPECT_EQ(serving.goodput_queries, goodput);
  EXPECT_EQ(serving.completed + serving.rejected + serving.shed,
            serving.submitted);
  EXPECT_GT(served, 0u);
  uint64_t tenant_total = 0;
  for (const TenantServingStats& tenant : serving.tenants) {
    tenant_total += tenant.submitted;
  }
  EXPECT_EQ(tenant_total, serving.submitted);
}

}  // namespace
}  // namespace amac
