// Shared plumbing of the repository benchmark (perfbench/): argument
// parsing, the metric report, the in-memory span recorder, host facts, and
// the small pieces of arithmetic the workloads share (percentiles).
//
// Every workload runs as one process: it builds its inputs from --seed,
// times set-up separately, warms up untimed, measures for --seconds, checks
// every result against an oracle, and reports its metrics through Report.
// With --trace 1 it also records spans around its calls into the library
// and writes them as Chrome trace-event JSON when it ends.  Each workload's
// parameters are constants in its own file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// False (and a message on stderr) on malformed arguments.
bool ParseArgs(int argc, char** argv, Args* args);

/// Ordered metric report plus the run's correctness accounting.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  /// Record `count` failed checks (oracle divergence, broken accounting
  /// invariant); printed at once and counted in `failed`.
  void Fail(const std::string& what, uint64_t count = 1);

  /// Operations attempted, and how many of them failed their check.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failed == 0; }

  /// One "metric <name> = <value> <unit>" line per metric.
  void PrintHuman() const;
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// In-memory span recorder, written as Chrome trace-event JSON at exit.
/// Spans are recorded only by the benchmark's own client thread, around
/// its calls into the library, so the recorder is single-threaded.  A
/// disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Microseconds since the tracer was created.
  double NowUs() const;

  /// Record a finished span; returns its id (0 when disabled or full).
  uint64_t Record(const std::string& name, const char* category,
                  double start_us, double duration_us, uint64_t parent = 0);

  uint64_t spans() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Write every span plus `meta` (host facts) to `path`; false on I/O
  /// failure.
  bool Write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta)
      const;

 private:
  struct Span {
    std::string name;
    const char* category;
    double start_us;
    double duration_us;
    uint64_t id;
    uint64_t parent;
  };
  static constexpr size_t kMaxSpans = 200000;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Facts every result is stamped with.
struct HostFacts {
  unsigned nproc = 0;
  std::string simd_level;
  uint64_t llc_bytes = 0;  ///< largest cache level in sysfs; 0 if unknown
  double tsc_hz = 0;
};
HostFacts ReadHostFacts();

/// Size of the largest cache level in sysfs, in bytes; 0 if unknown.
uint64_t LlcBytes();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Seconds on a steady clock since an arbitrary origin.
double NowSeconds();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Nearest-rank percentile (the library's definition, common/stats.h) of
/// an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Deterministic per-purpose seed derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// The workloads (defined in their own files).
void RunJoinDram(const Args& args, Report* report, Tracer* tracer);
void RunYcsbRw(const Args& args, Report* report, Tracer* tracer);

/// Checks of the arithmetic above; returns the number of failed checks.
int SelfTest();

}  // namespace perfbench
