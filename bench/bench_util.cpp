#include "bench_util.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"

namespace amac::bench {

void BenchArgs::Define(int default_scale_log2) {
  flags.DefineInt("scale_log2", default_scale_log2,
                  "log2 of the probe/input cardinality (paper used 27)");
  flags.DefineInt("reps", 2, "repetitions per point (min is reported)");
  flags.DefineInt("inflight", 10,
                  "in-flight lookups per thread (paper's M; 10 matches the "
                  "Xeon's L1-D MSHR count)");
}

void BenchArgs::Parse(int argc, char** argv) {
  flags.Parse(argc, argv);
  scale = uint64_t{1} << flags.GetInt("scale_log2");
  reps = static_cast<uint32_t>(flags.GetInt("reps"));
  inflight = static_cast<uint32_t>(flags.GetInt("inflight"));
}

PreparedJoin PrepareJoin(uint64_t r_size, uint64_t s_size, double zr,
                         double zs, uint64_t seed,
                         double target_nodes_per_bucket, HashKind hash_kind) {
  PreparedJoin prepared;
  prepared.r = zr == 0.0 ? MakeDenseUniqueRelation(r_size, seed)
                         : MakeZipfRelation(r_size, r_size, zr, seed);
  prepared.s = zs == 0.0 ? MakeForeignKeyRelation(s_size, r_size, seed + 1)
                         : MakeZipfRelation(s_size, r_size, zs, seed + 1);
  ChainedHashTable::Options options;
  options.target_nodes_per_bucket = target_nodes_per_bucket;
  options.hash_kind = hash_kind;
  prepared.table = std::make_unique<ChainedHashTable>(r_size, options);
  BuildTableUnsync(prepared.r, prepared.table.get());
  return prepared;
}

RunStats MeasureProbe(Executor& exec, const PreparedJoin& prepared,
                      bool early_exit, uint32_t reps) {
  RunStats best;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    const RunStats run =
        ProbePhase(exec, *prepared.table, prepared.s, early_exit);
    if (rep == 0 || run.cycles < best.cycles) best = run;
  }
  return best;
}

JoinResult MeasureJoin(Executor& exec, const PreparedJoin& prepared,
                       const JoinOptions& options, uint32_t reps) {
  JoinResult best;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    ChainedHashTable::Options table_options;
    table_options.target_nodes_per_bucket = options.target_nodes_per_bucket;
    table_options.hash_kind = options.hash_kind;
    ChainedHashTable table(prepared.r.size(), table_options);
    JoinResult result;
    result.build = BuildPhase(exec, prepared.r, &table);
    result.probe = ProbePhase(exec, table, prepared.s, options.early_exit);
    if (rep == 0 || result.build.cycles + result.probe.cycles <
                        best.build.cycles + best.probe.cycles) {
      best = result;
    }
  }
  return best;
}

PlanResult MeasurePlan(Executor& exec, const Plan& plan,
                       const PlanOptions& options, uint32_t reps) {
  PlanResult best;
  for (uint32_t rep = 0; rep < std::max(1u, reps); ++rep) {
    PlanResult result = RunPlan(exec, plan, options);
    if (rep == 0 || result.TotalCycles() < best.TotalCycles()) {
      best = std::move(result);
    }
  }
  return best;
}

RunStats SoloRun(const Plan& plan, const PlanOptions& options) {
  Executor solo(
      ExecConfig{ExecPolicy::kSequential, SchedulerParams{1, 1, 0}, 1, 0});
  return RunPlan(solo, plan, options).run;
}

std::unique_ptr<SkipList> BuildSkipList(const Relation& rel, uint64_t seed) {
  auto slist = std::make_unique<SkipList>(rel.size());
  Rng rng(seed);
  for (const Tuple& t : rel) slist->InsertUnsync(t.key, t.payload, rng);
  return slist;
}

std::unique_ptr<CsrGraph> MakeWalkGraph(uint64_t scale, uint64_t seed) {
  CsrGraph::Options options;
  options.num_vertices = std::max<uint64_t>(64, scale / 4);
  options.out_degree = 8;
  options.seed = seed;
  return std::make_unique<CsrGraph>(options);
}

void PlanJsonFields(JsonWriter* json, const PlanStats& plan) {
  json->Field("plan_shape", std::string(PlanShapeName(plan.shape)));
  json->Field("plan_candidates", plan.candidates_considered);
  json->Field("plan_from_priors", uint64_t{plan.from_priors ? 1u : 0u});
  json->Field("plan_estimated_cost_cycles", plan.estimated_cost_cycles);
  json->Field("plan_measured_cost_cycles", plan.measured_cost_cycles);
  json->Field("plan_observed_selectivity", plan.observed_selectivity);
}

void PerfJsonFields(JsonWriter* json, const PerfCounters::Sample& perf) {
  json->Field("perf_valid", uint64_t{perf.valid ? 1u : 0u});
  json->Field("llc_misses", perf.llc_misses);
  json->Field("stalled_cycles", perf.stalled_cycles);
  json->Field("instructions", perf.instructions);
}

std::string SkewLabel(double zr, double zs) {
  char buf[32];
  auto one = [](double z) {
    char b[16];  // "%.2g" of any double fits, e.g. "-2.2e-308"
    if (z == 0.0) return std::string("0");
    if (z == 1.0) return std::string("1");
    std::snprintf(b, sizeof(b), "%.2g", z);
    return std::string(b);
  };
  std::snprintf(buf, sizeof(buf), "[%s, %s]", one(zr).c_str(),
                one(zs).c_str());
  return buf;
}

bool SequentialOracle::Check(const std::string& where, ExecPolicy policy,
                             uint64_t got_outputs, uint64_t got_checksum) {
  if (policy == ExecPolicy::kSequential) {
    outputs = got_outputs;
    checksum = got_checksum;
    return true;
  }
  if (got_outputs == outputs && got_checksum == checksum) return true;
  std::printf("ERROR: %s diverges from the sequential oracle at %s "
              "(outputs %llu vs %llu, checksum %llx vs %llx)\n",
              ExecPolicyName(policy), where.c_str(),
              static_cast<unsigned long long>(got_outputs),
              static_cast<unsigned long long>(outputs),
              static_cast<unsigned long long>(got_checksum),
              static_cast<unsigned long long>(checksum));
  return false;
}

void PrintHeader(const std::string& artifact, const std::string& notes) {
  std::printf("\n########################################################\n");
  std::printf("# Reproduces: %s\n", artifact.c_str());
  if (!notes.empty()) std::printf("# %s\n", notes.c_str());
  std::printf("########################################################\n");
}

namespace {

/// Minimal escaping for the strings our benches emit (policy/workload
/// names): quotes, backslashes, and control characters.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

JsonWriter::JsonWriter(const std::string& path, const std::string& bench) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    std::printf("ERROR: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file_, "{");
  Field("bench", bench);
}

JsonWriter::~JsonWriter() {
  if (file_ != nullptr) Close();
}

void JsonWriter::Key(const std::string& key) {
  std::fprintf(file_, "%s\n%s\"%s\": ", first_in_scope_ ? "" : ",",
               in_point_ ? "      " : "  ", JsonEscape(key).c_str());
  first_in_scope_ = false;
}

void JsonWriter::Field(const std::string& key, const std::string& value) {
  if (!ok()) return;
  Key(key);
  std::fprintf(file_, "\"%s\"", JsonEscape(value).c_str());
}

void JsonWriter::Field(const std::string& key, uint64_t value) {
  if (!ok()) return;
  Key(key);
  std::fprintf(file_, "%llu", static_cast<unsigned long long>(value));
}

void JsonWriter::Field(const std::string& key, int64_t value) {
  if (!ok()) return;
  Key(key);
  std::fprintf(file_, "%lld", static_cast<long long>(value));
}

void JsonWriter::Field(const std::string& key, double value) {
  if (!ok()) return;
  Key(key);
  // Fixed-point with enough digits for throughputs and millisecond
  // latencies alike; JSON has no infinity/NaN, so degenerate values
  // (unmeasured points) are emitted as 0.
  if (!(value > -1e300 && value < 1e300)) value = 0;
  std::fprintf(file_, "%.6f", value);
}

void JsonWriter::BeginSeries() {
  if (!ok()) return;
  std::fprintf(file_, "%s\n  \"series\": [", first_in_scope_ ? "" : ",");
  in_series_ = true;
  first_in_scope_ = true;
}

void JsonWriter::ClosePoint() {
  if (in_point_) {
    std::fprintf(file_, "\n    }");
    in_point_ = false;
    // Back in the series scope, which now has at least this point.
    first_in_scope_ = false;
  }
}

void JsonWriter::BeginPoint() {
  if (!ok()) return;
  ClosePoint();
  std::fprintf(file_, "%s\n    {", first_in_scope_ ? "" : ",");
  in_point_ = true;
  first_in_scope_ = true;
}

bool JsonWriter::Close() {
  if (file_ == nullptr) return false;
  ClosePoint();
  if (in_series_) {
    std::fprintf(file_, "\n  ]");
    in_series_ = false;
  }
  std::fprintf(file_, "\n}\n");
  const bool ok = std::fclose(file_) == 0;
  file_ = nullptr;
  return ok;
}

}  // namespace amac::bench
