// Shared plumbing for the per-figure benchmark binaries.
//
// Conventions (see the README section "Running the figure benches"):
//  * every binary prints the paper table/figure it regenerates, the scale it
//    ran at, and one TablePrinter block whose rows mirror the paper's
//    series;
//  * dataset sizes default to laptop scale (2^20-class instead of the
//    paper's 2^27) and are adjustable via --scale_log2;
//  * each measured point is the minimum over --reps repetitions (the paper
//    reports best-configuration numbers; min-of-reps removes timer noise).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "core/scheduler.h"
#include "graph/csr.h"
#include "hashtable/chained_table.h"
#include "join/hash_join.h"
#include "metrics/perf_counters.h"
#include "plan/plan.h"
#include "relation/relation.h"
#include "skiplist/skiplist.h"

namespace amac::bench {

/// The four schedules the paper's figures compare, as unified-runtime
/// policies (the legacy Engine enum's Baseline/GP/SPP/AMAC series).
inline constexpr ExecPolicy kPaperPolicies[] = {
    ExecPolicy::kSequential, ExecPolicy::kGroupPrefetch,
    ExecPolicy::kSoftwarePipelined, ExecPolicy::kAmac};

/// Figure-series label: the paper calls kSequential "Baseline"; the other
/// policies keep their runtime names (GP/SPP/AMAC/Coroutine).
inline const char* SeriesName(ExecPolicy p) {
  return p == ExecPolicy::kSequential ? "Baseline" : ExecPolicyName(p);
}

/// Standard flags shared by the figure benches; individual benches may add
/// their own before calling Parse.
struct BenchArgs {
  Flags flags;
  uint64_t scale = 0;   ///< |S| (probe/input cardinality)
  uint32_t reps = 0;
  uint32_t inflight = 0;

  /// Define the common flags with a bench-specific default scale.
  void Define(int default_scale_log2);
  void Parse(int argc, char** argv);
};

/// A built join input: relations plus the populated hash table.
struct PreparedJoin {
  Relation r;
  Relation s;
  std::unique_ptr<ChainedHashTable> table;
};

/// Build R (optionally Zipf-skewed with factor `zr`), S (skew `zs`, keys in
/// R's key range), and the hash table.  zr == 0 gives the dense unique R /
/// FK-constrained S of the paper's uniform workloads.
PreparedJoin PrepareJoin(uint64_t r_size, uint64_t s_size, double zr,
                         double zs, uint64_t seed,
                         double target_nodes_per_bucket = 1.0,
                         HashKind hash_kind = HashKind::kMurmur);

/// Probe `prepared` on `exec`, `reps` times; returns the repetition with
/// the fewest probe cycles.  The executor's persistent pool is reused
/// across repetitions, so per-call thread spawn stays off the measurement.
RunStats MeasureProbe(Executor& exec, const PreparedJoin& prepared,
                      bool early_exit, uint32_t reps);

/// Full build+probe measurement on `exec` (fresh table per repetition);
/// returns the repetition with the fewest total cycles.
JoinResult MeasureJoin(Executor& exec, const PreparedJoin& prepared,
                       const JoinOptions& options, uint32_t reps);

/// Run `plan` on `exec` `reps` times; returns the repetition with the
/// fewest total (build + run) cycles.  Plan-owned group tables are
/// allocated fresh inside each RunPlan call, so per-rep state reset — the
/// AggregateTable/MaterializeSink boilerplate the benches used to
/// hand-roll — is the plan layer's problem now.  Once the first
/// repetitions have explored every shape, later ones ride the stored
/// priors (run.plan.from_priors), which is the steady state a serving
/// system would measure.
PlanResult MeasurePlan(Executor& exec, const Plan& plan,
                       const PlanOptions& options, uint32_t reps);

/// Run `plan` once on a throwaway solo sequential executor (1 thread,
/// M=1): the schedule-independent oracle result every other schedule and
/// shape must reproduce.
RunStats SoloRun(const Plan& plan, const PlanOptions& options = {});

/// A skip list holding every (key, payload) of `rel`, inserted unsynced
/// with a deterministic level RNG — the index the serving/adaptive benches
/// probe.
std::unique_ptr<SkipList> BuildSkipList(const Relation& rel, uint64_t seed);

/// The benches' standard random-walk graph: scale/4 vertices (min 64),
/// out-degree 8.
std::unique_ptr<CsrGraph> MakeWalkGraph(uint64_t scale, uint64_t seed);

/// "[ZR, ZS]" labels used by Figs. 5/7/8.
std::string SkewLabel(double zr, double zs);

/// The oracle check of one row of a policy sweep whose first column is
/// kSequential: that column's (outputs, checksum) is the oracle, and every
/// later policy must reproduce it.
struct SequentialOracle {
  uint64_t outputs = 0;
  uint64_t checksum = 0;

  /// Records the kSequential result, or compares another policy's with it;
  /// on a divergence prints an ERROR line naming `where` and returns false.
  bool Check(const std::string& where, ExecPolicy policy, uint64_t outputs,
             uint64_t checksum);
};

/// Banner naming the paper artifact this binary regenerates.
void PrintHeader(const std::string& artifact, const std::string& notes);

/// Streaming writer for the machine-readable perf artifacts CI uploads
/// (BENCH_*.json): one flat object of header fields plus one "series"
/// array of flat point objects.  Shared by fig06/fig12/ext_serving/
/// ext_adaptive so the escaping/comma bookkeeping lives in exactly one
/// place.
///
///   JsonWriter json(path, "fig12_fused_join_groupby");
///   json.Field("scale", scale);
///   json.BeginSeries();
///   for (...) { json.BeginPoint(); json.Field("policy", name); ... }
///   ok = json.Close();
class JsonWriter {
 public:
  /// Opens `path` and writes the object header with a "bench" name field.
  JsonWriter(const std::string& path, const std::string& bench);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// False when the file could not be opened (an error was printed).
  bool ok() const { return file_ != nullptr; }

  void Field(const std::string& key, const std::string& value);
  void Field(const std::string& key, uint64_t value);
  void Field(const std::string& key, int64_t value);
  void Field(const std::string& key, double value);
  // Disambiguating delegates (an int literal would otherwise be torn
  // between the integer and double overloads).
  void Field(const std::string& key, uint32_t value) {
    Field(key, uint64_t{value});
  }
  void Field(const std::string& key, int value) {
    Field(key, static_cast<int64_t>(value));
  }

  /// Start the "series" array; every point between BeginPoint() calls is
  /// one flat object of Field()s.
  void BeginSeries();
  void BeginPoint();

  /// Close all open scopes and the file; false on any I/O failure.
  bool Close();

 private:
  void Key(const std::string& key);
  void ClosePoint();

  std::FILE* file_ = nullptr;
  bool in_series_ = false;
  bool in_point_ = false;
  bool first_in_scope_ = true;
};

/// Emit a run's optimizer decision (RunStats::plan) as flat JSON fields —
/// shape name, candidate count, and the cost-model provenance — under the
/// current JsonWriter point.
void PlanJsonFields(JsonWriter* json, const PlanStats& plan);

/// Emit a run's hardware counters (RunStats::perf) as flat JSON fields
/// with the fig05/fig06 names — perf_valid, llc_misses, stalled_cycles,
/// instructions — so every bench artifact carries the same counter
/// vocabulary for the nightly trajectory.  Zeroes with perf_valid=0 when
/// the kernel forbade sampling.
void PerfJsonFields(JsonWriter* json, const PerfCounters::Sample& perf);

}  // namespace amac::bench
