#include "join/hash_join.h"

#include <algorithm>
#include <vector>

#include "common/cycle_timer.h"
#include "common/thread_pool.h"
#include "join/join_ops.h"

namespace amac {

namespace {

/// Bucket-range partition: the part that owns a bucket index.  Contiguous
/// monotone ranges so a part's buckets share cache lines.
inline uint32_t BucketOwner(uint64_t bucket_index, uint64_t num_buckets,
                            uint32_t parts) {
  return static_cast<uint32_t>(bucket_index * parts / num_buckets);
}

/// Partitioned parallel build (race-free, deterministic), two ForRanges
/// passes over the team:
///
///  pass 1 — every part scans a static slice of R and scatters each tuple
///           index into cells[part][owner], owner = the part whose bucket
///           range the tuple hashes into;
///  pass 2 — every owner concatenates cells[0..T-1][owner] in scanner
///           order (slices are contiguous, so the list is in R order) and
///           inserts its list through the configured policy, *unlatched*:
///           no other part touches its buckets.
///
/// The join between the passes publishes every scanner's cells to every
/// owner.  Per-bucket insertion order equals the sequential build's (R
/// order), so chain contents are bit-identical for any thread count and
/// policy — the property the differential tests pin.
RunStats BuildParallel(Executor& exec, const Relation& r,
                       ChainedHashTable* table) {
  const ExecConfig& config = exec.config();
  ThreadPool* team = &exec.pool();
  const uint32_t parts = team->size();
  const uint64_t num_buckets = table->num_buckets();
  std::vector<std::vector<std::vector<uint64_t>>> cells(
      parts, std::vector<std::vector<uint64_t>>(parts));
  std::vector<EngineStats> per_part(parts);
  WallTimer wall;
  CycleTimer timer;
  ForRanges(team, r.size(), [&](uint32_t part, Range slice) {
    auto& mine = cells[part];
    for (auto& cell : mine) cell.reserve((slice.size() / parts) + 1);
    for (uint64_t i = slice.begin; i < slice.end; ++i) {
      const uint32_t owner =
          BucketOwner(table->BucketIndex(r[i].key), num_buckets, parts);
      mine[owner].push_back(i);
    }
  });
  ForRanges(team, parts, [&](uint32_t owner, Range) {
    uint64_t owned_count = 0;
    for (uint32_t scanner = 0; scanner < parts; ++scanner) {
      owned_count += cells[scanner][owner].size();
    }
    std::vector<uint64_t> ids;
    ids.reserve(owned_count);
    for (uint32_t scanner = 0; scanner < parts; ++scanner) {
      const auto& cell = cells[scanner][owner];
      ids.insert(ids.end(), cell.begin(), cell.end());
    }
    BuildOp<false> op(*table, r, ids.data());
    per_part[owner] = Run(config.policy, config.params, op, ids.size());
  });
  RunStats run;
  run.cycles = timer.Elapsed();
  run.seconds = wall.ElapsedSeconds();
  run.dispatch_seconds = run.seconds;
  run.inputs = r.size();
  run.threads = parts;
  for (const EngineStats& stats : per_part) run.engine.Merge(stats);
  return run;
}

}  // namespace

RunStats BuildPhase(Executor& exec, const Relation& r,
                    ChainedHashTable* table, BuildMode mode) {
  const uint32_t threads = exec.num_threads();
  if (threads == 1) {
    return exec.RunOp(r.size(), [&](uint32_t) {
      return BuildOp<false>(*table, r);
    });
  }
  if (mode == BuildMode::kChained) {
    return exec.RunOp(r.size(), [&](uint32_t) {
      return BuildOp<true>(*table, r);
    });
  }
  return BuildParallel(exec, r, table);
}

RunStats ProbePhase(Executor& exec, const ChainedHashTable& table,
                    const Relation& s, bool early_exit) {
  const uint32_t threads = exec.num_threads();
  std::vector<CountChecksumSink> sinks(threads);
  RunStats run;
  if (early_exit) {
    run = exec.RunOp(s.size(), [&](uint32_t tid) {
      return ProbeOp<true, CountChecksumSink>(table, s, sinks[tid]);
    });
  } else {
    run = exec.RunOp(s.size(), [&](uint32_t tid) {
      return ProbeOp<false, CountChecksumSink>(table, s, sinks[tid]);
    });
  }
  CountChecksumSink total;
  for (const auto& sink : sinks) total.Merge(sink);
  run.outputs = total.matches();
  run.checksum = total.checksum();
  return run;
}

JoinResult RunHashJoin(Executor& exec, const Relation& r, const Relation& s,
                       const JoinOptions& options) {
  ChainedHashTable::Options table_options;
  table_options.target_nodes_per_bucket = options.target_nodes_per_bucket;
  table_options.hash_kind = options.hash_kind;
  ChainedHashTable table(std::max<uint64_t>(1, r.size()), table_options,
                         &exec.pool());
  JoinResult result;
  result.build = BuildPhase(exec, r, &table);
  result.probe = ProbePhase(exec, table, s, options.early_exit);
  return result;
}

}  // namespace amac
