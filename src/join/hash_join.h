// High-level hash join driver on the unified execution runtime: builds the
// table from R with a partitioned parallel build and probes it with S
// morsel-driven on the Executor's team, reporting the cycle/throughput
// metrics the paper's tables and figures use.
//
// The entry points take an `Executor` (core/pipeline.h), which owns the
// ExecPolicy, tuning parameters, and the persistent thread team; join
// behavior itself is configured with `JoinOptions`.  Both phases come back
// as the runtime's unified RunStats (the PR-3 JoinConfig/JoinStats shims
// are gone).
#pragma once

#include <cstdint>

#include "common/hash.h"
#include "core/pipeline.h"
#include "core/scheduler.h"
#include "hashtable/chained_table.h"
#include "join/sink.h"
#include "relation/relation.h"

namespace amac {

/// Join-specific knobs for the Executor-based API.  Execution policy,
/// in-flight width, stages, thread count, and morsel size live on the
/// Executor, not here.
struct JoinOptions {
  /// Stop a lookup at its first match (valid for unique build keys).
  bool early_exit = true;
  /// Bucket sizing: expected chain nodes per bucket under uniform keys.
  double target_nodes_per_bucket = 1.0;
  HashKind hash_kind = HashKind::kMurmur;
};

/// A full join measurement: one RunStats per phase.  The probe run's
/// outputs/checksum are the join's matches/checksum (CountChecksumSink
/// discipline); all rate accessors return 0 on empty inputs.
struct JoinResult {
  RunStats build;  ///< inputs = |R|
  RunStats probe;  ///< inputs = |S|, outputs = matches

  uint64_t matches() const { return probe.outputs; }
  uint64_t checksum() const { return probe.checksum; }
  double BuildCyclesPerTuple() const { return build.CyclesPerInput(); }
  double ProbeCyclesPerTuple() const { return probe.CyclesPerInput(); }
  /// Paper Fig. 5: cycles per *output* tuple, build+probe stacked.
  double CyclesPerOutputTuple() const {
    return probe.outputs
               ? static_cast<double>(build.cycles + probe.cycles) /
                     static_cast<double>(probe.outputs)
               : 0;
  }
  /// Paper Fig. 7/8: probe throughput in tuples/second.
  double ProbeThroughput() const { return probe.Throughput(); }
};

/// How a multi-threaded BuildPhase splits the inserts across the team.
enum class BuildMode : uint8_t {
  /// Bucket-range partitioned: tuples are scattered to the part that owns
  /// their bucket, so insertion is race-free (no latches) and every
  /// bucket's chain is bit-identical to a 1-thread build's.
  kPartitioned,
  /// Latched chained inserts, any thread any bucket.  Chain ORDER then
  /// depends on thread interleaving, but chain CONTENTS do not, so probes
  /// over unique build keys (and any full-enumeration probe checksum) are
  /// order-independent.  Plan-built tables use this mode.
  kChained,
};

/// Build `table` from R under the executor's policy; returns the phase's
/// RunStats.  The table must be empty and sized for R.  Single-threaded
/// builds ignore `mode` (both degenerate to the sequential unlatched
/// build).
RunStats BuildPhase(Executor& exec, const Relation& r,
                    ChainedHashTable* table,
                    BuildMode mode = BuildMode::kPartitioned);

/// Probe `table` with S under the executor's policy; returns the phase's
/// RunStats with outputs = matches and the order-independent match
/// checksum.  With a multi-threaded executor the probe is morsel-driven
/// through the executor's persistent pool with one sink per slot, merged
/// afterwards.
RunStats ProbePhase(Executor& exec, const ChainedHashTable& table,
                    const Relation& s, bool early_exit);

/// Convenience: a partitioned BuildPhase of R into a fresh table, then
/// ProbePhase with S, on one executor.
JoinResult RunHashJoin(Executor& exec, const Relation& r, const Relation& s,
                       const JoinOptions& options = {});

}  // namespace amac
