// Repository benchmark binary.  perfbench/run.py builds it and
// calls it as
//
//   amac_perfbench --workload <join-dram|ycsb-rw>
//                  --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// It prints the host facts, one line per metric, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
// is nonzero when any result diverged from its oracle.  --selftest checks
// the benchmark's own arithmetic and exits.
#include <cstdio>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.workload == "selftest") {
    const int failures = SelfTest();
    std::printf("selftest: %s\n", failures == 0 ? "OK" : "FAILED");
    return failures == 0 ? 0 : 1;
  }

  const HostFacts host = ReadHostFacts();
  std::printf("host: nproc=%u simd_level=%s llc_bytes=%llu tsc_hz=%.0f "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              host.nproc, host.simd_level.c_str(),
              static_cast<unsigned long long>(host.llc_bytes), host.tsc_hz,
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  Tracer tracer(args.trace);
  if (args.workload == "join-dram") {
    RunJoinDram(args, &report, &tracer);
  } else if (args.workload == "ycsb-rw") {
    RunYcsbRw(args, &report, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    report.Add("trace.spans", static_cast<double>(tracer.spans()), "count");
    report.Add("trace.spans_dropped", static_cast<double>(tracer.dropped()),
               "count");
    if (!args.trace_out.empty()) {
      const bool written = tracer.Write(
          args.trace_out,
          {{"workload", args.workload},
           {"seed", std::to_string(args.seed)},
           {"nproc", std::to_string(host.nproc)},
           {"simd_level", host.simd_level},
           {"llc_bytes", std::to_string(host.llc_bytes)},
           {"tsc_hz", std::to_string(host.tsc_hz)}});
      if (!written) {
        report.Fail("cannot write trace file " + args.trace_out);
      } else {
        std::printf("trace: %llu spans written to %s\n",
                    static_cast<unsigned long long>(tracer.spans()),
                    args.trace_out.c_str());
      }
    }
  }
  report.PrintHuman();
  report.PrintJson();
  return report.correct() ? 0 : 1;
}
