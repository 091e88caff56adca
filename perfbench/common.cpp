#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/cpu_features.h"
#include "common/cycle_timer.h"
#include "common/hash.h"
#include "common/stats.h"

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->workload = "selftest";
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    std::fprintf(stderr,
                 "usage: amac_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return false;
  }
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  entries_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what, uint64_t count) {
  failed += count;
  std::printf("ERROR: %s\n", what.c_str());
  std::fflush(stdout);
}

void Report::PrintHuman() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-48s = %.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", entries_[i].name.c_str(),
                entries_[i].value, entries_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t Tracer::Record(const std::string& name, const char* category,
                        double start_us, double duration_us,
                        uint64_t parent) {
  if (!enabled_) return 0;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, category, start_us, std::max(0.0, duration_us), id,
                    parent});
  return id;
}

bool Tracer::Write(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
  for (size_t i = 0; i < meta.size(); ++i) {
    std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                 meta[i].first.c_str(), meta[i].second.c_str());
  }
  std::fprintf(f, "},\n\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.category, s.start_us,
                 s.duration_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

/// Parse sysfs cache sizes such as "307200K" or "32M".
uint64_t ParseCacheSize(const std::string& text) {
  char* end = nullptr;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (end != nullptr && (*end == 'K' || *end == 'k')) return value << 10;
  if (end != nullptr && (*end == 'M' || *end == 'm')) return value << 20;
  return value;
}

}  // namespace

uint64_t LlcBytes() {
  uint64_t bytes = 0;
  int best_level = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size)) continue;
    if (level >= best_level) {
      best_level = level;
      bytes = ParseCacheSize(size);
    }
  }
  return bytes;
}

HostFacts ReadHostFacts() {
  HostFacts facts;
  facts.nproc = std::max(1u, std::thread::hardware_concurrency());
  facts.simd_level = amac::SimdLevelName(amac::DetectedSimdLevel());
  facts.llc_bytes = LlcBytes();
  facts.tsc_hz = amac::EstimateTscHz();
  return facts;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return amac::PercentileOfSorted(values, q);
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return amac::Mix64(seed * 0x9e3779b97f4a7c15ull + purpose + 1);
}

int SelfTest() {
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(Percentile(hundred, 0.50) == 50, "p50 of 1..100 is 50");
  check(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  check(Percentile({7}, 0.99) == 7, "percentile of one sample");
  check(Percentile({}, 0.5) == 0, "percentile of no samples");
  check(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
  check(SubSeed(1, 0) != SubSeed(2, 0) && SubSeed(1, 0) != SubSeed(1, 1),
        "sub-seeds differ");
  return failures;
}

}  // namespace perfbench
