#include "join/hash_join.h"

#include <algorithm>
#include <vector>

#include "common/barrier.h"
#include "common/cycle_timer.h"
#include "common/thread_pool.h"
#include "join/join_ops.h"
#include "plan/plan.h"

namespace amac {

namespace {

/// Bucket-range partition: the thread that owns a bucket index.  Contiguous
/// monotone ranges so a thread's buckets share cache lines.
inline uint32_t BucketOwner(uint64_t bucket_index, uint64_t num_buckets,
                            uint32_t threads) {
  return static_cast<uint32_t>(bucket_index * threads / num_buckets);
}

/// Partitioned parallel build (race-free, deterministic):
///
///  phase 1 — every thread scans a static slice of R and scatters each
///            tuple index into cell[scanner][owner], owner = the thread
///            whose bucket range the tuple hashes into;
///  phase 2 — every owner concatenates cell[0..T-1][owner] in scanner
///            order (slices are contiguous, so the list is in R order) and
///            inserts its list through the configured policy, *unlatched*:
///            no other thread touches its buckets.
///
/// Per-bucket insertion order equals the sequential build's (R order), so
/// chain contents are bit-identical for any thread count and policy — the
/// property the differential tests pin.
RunStats BuildParallel(Executor& exec, const Relation& r, uint32_t threads,
                       ChainedHashTable* table) {
  const ExecConfig& config = exec.config();
  const uint64_t num_buckets = table->num_buckets();
  std::vector<std::vector<std::vector<uint64_t>>> cells(
      threads, std::vector<std::vector<uint64_t>>(threads));
  std::vector<EngineStats> per_thread(threads);
  std::vector<uint64_t> elapsed(threads, 0);
  std::vector<double> elapsed_seconds(threads, 0);
  SpinBarrier barrier(threads);
  exec.pool().Run([&](uint32_t tid) {
    barrier.Wait();
    CycleTimer timer;
    WallTimer wall;
    const Range slice = PartitionRange(r.size(), threads, tid);
    auto& mine = cells[tid];
    for (auto& cell : mine) {
      cell.reserve((slice.size() / threads) + 1);
    }
    for (uint64_t i = slice.begin; i < slice.end; ++i) {
      const uint32_t owner =
          BucketOwner(table->BucketIndex(r[i].key), num_buckets, threads);
      mine[owner].push_back(i);
    }
    barrier.Wait();  // publishes every scanner's cells to every owner
    uint64_t owned_count = 0;
    for (uint32_t scanner = 0; scanner < threads; ++scanner) {
      owned_count += cells[scanner][tid].size();
    }
    std::vector<uint64_t> ids;
    ids.reserve(owned_count);
    for (uint32_t scanner = 0; scanner < threads; ++scanner) {
      const auto& cell = cells[scanner][tid];
      ids.insert(ids.end(), cell.begin(), cell.end());
    }
    BuildOp<false> op(*table, r, ids.data());
    per_thread[tid] = Run(config.policy, config.params, op, ids.size());
    barrier.Wait();
    elapsed[tid] = timer.Elapsed();
    elapsed_seconds[tid] = wall.ElapsedSeconds();
  });
  RunStats run;
  run.inputs = r.size();
  run.threads = threads;
  for (uint32_t t = 0; t < threads; ++t) {
    run.engine.Merge(per_thread[t]);
    run.cycles = std::max(run.cycles, elapsed[t]);
    run.seconds = std::max(run.seconds, elapsed_seconds[t]);
  }
  run.dispatch_seconds = run.seconds;
  return run;
}

}  // namespace

RunStats BuildPhase(Executor& exec, const Relation& r,
                    ChainedHashTable* table, PlanBuildMode mode) {
  const uint32_t threads = exec.num_threads();
  if (threads == 1) {
    return exec.Run(FromOp(r.size(), [&](uint32_t) {
      return BuildOp<false>(*table, r);
    }));
  }
  if (mode == PlanBuildMode::kChained) {
    return exec.Run(FromOp(r.size(), [&](uint32_t) {
      return BuildOp<true>(*table, r);
    }));
  }
  return BuildParallel(exec, r, threads, table);
}

RunStats ProbePhase(Executor& exec, const ChainedHashTable& table,
                    const Relation& s, bool early_exit) {
  const uint32_t threads = exec.num_threads();
  std::vector<CountChecksumSink> sinks(threads);
  RunStats run;
  if (early_exit) {
    run = exec.Run(FromOp(s.size(), [&](uint32_t tid) {
      return ProbeOp<true, CountChecksumSink>(table, s, sinks[tid]);
    }));
  } else {
    run = exec.Run(FromOp(s.size(), [&](uint32_t tid) {
      return ProbeOp<false, CountChecksumSink>(table, s, sinks[tid]);
    }));
  }
  CountChecksumSink total;
  for (const auto& sink : sinks) total.Merge(sink);
  run.outputs = total.matches();
  run.checksum = total.checksum();
  return run;
}

JoinResult RunHashJoin(Executor& exec, const Relation& r, const Relation& s,
                       const JoinOptions& options) {
  // Legacy shape, expressed as a plan: fused, build on R, partitioned
  // parallel build, ProbePhase's (rid, payload) accounting.  kMatches pins
  // the enumeration to this single shape, so no optimizer measurement ever
  // runs here and phase behavior is byte-for-byte the historic path.
  PlanOptions popts;
  popts.terminal = PlanTerminal::kMatches;
  PlanResult res = RunPlan(exec, Plan::Scan(s).HashJoin(r, options), popts);
  JoinResult result;
  result.build = res.build;
  result.probe = res.run;
  return result;
}

}  // namespace amac
