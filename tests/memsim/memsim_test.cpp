// Memory-system model tests: determinism, conservation, and the qualitative
// behaviors the model exists to reproduce (MLP limits, LLC queue
// saturation, SMT sharing).
#include "memsim/memsim.h"

#include <gtest/gtest.h>

#include <vector>

#include "memsim/workload.h"

namespace amac::memsim {
namespace {

SimConfig BaseConfig(const std::vector<uint32_t>& lengths) {
  SimConfig c;
  c.chain_lengths = &lengths;
  c.lookups_per_thread = 2000;
  c.inflight = 10;
  return c;
}

TEST(MemsimTest, DeterministicAcrossRuns) {
  const auto lengths = FixedWalkLengths(1000, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  c.num_threads = 4;
  const SimResult a = Simulate(MachineConfig::XeonX5670(), c);
  const SimResult b = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.gq_full_waits, b.gq_full_waits);
}

TEST(MemsimTest, FlatModelGolden) {
  // Exact outputs on a fixed irregular chain-length vector.  The modeled
  // Fig 7/8/12/13 and Table 4 run this code, so a change to any value here
  // changes those figures.
  std::vector<uint32_t> lengths = FixedWalkLengths(1000, 2);
  for (size_t i = 0; i < lengths.size(); i += 7) lengths[i] = 9;
  struct Golden {
    MachineConfig machine;
    uint32_t threads;
    ExecPolicy policy;
    uint64_t cycles, accesses, gq_full_waits;
  };
  const Golden golden[] = {
      {MachineConfig::XeonX5670(), 6, ExecPolicy::kSequential, 1212404,
       36012, 0},
      {MachineConfig::XeonX5670(), 6, ExecPolicy::kAmac, 226036, 36012,
       35897},
      {MachineConfig::SparcT4(), 16, ExecPolicy::kSequential, 1470495,
       96032, 0},
      {MachineConfig::SparcT4(), 16, ExecPolicy::kAmac, 297819, 96032, 0},
  };
  for (const Golden& g : golden) {
    SimConfig c = BaseConfig(lengths);
    c.policy = g.policy;
    c.num_threads = g.threads;
    const SimResult r = Simulate(g.machine, c);
    SCOPED_TRACE(g.machine.name + " " + ExecPolicyName(g.policy));
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.accesses, g.accesses);
    EXPECT_EQ(r.gq_full_waits, g.gq_full_waits);
  }
}

TEST(MemsimTest, AccessConservation) {
  // Total simulated accesses == sum of chain lengths of all lookups.
  const auto lengths = FixedWalkLengths(100, 3);
  SimConfig c = BaseConfig(lengths);
  c.lookups_per_thread = 500;
  c.num_threads = 2;
  const SimResult r = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_EQ(r.lookups, 1000u);
  EXPECT_EQ(r.accesses, 1000u * 3);
}

TEST(MemsimTest, BaselineHasUnitMlp) {
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kSequential;
  const SimResult r = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_LE(r.avg_outstanding, 1.05);
  EXPECT_GT(r.avg_outstanding, 0.5);
}

TEST(MemsimTest, AmacReachesMshrLimitedMlp) {
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  c.inflight = 16;  // more than the 10 MSHRs
  const SimResult r = Simulate(MachineConfig::XeonX5670(), c);
  // Achieved MLP should approach but never exceed the MSHR count.
  EXPECT_GT(r.avg_outstanding, 6.0);
  EXPECT_LE(r.avg_outstanding, 10.0 + 1e-9);
}

TEST(MemsimTest, AmacFasterThanBaselineSingleThread) {
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kSequential;
  const SimResult base = Simulate(MachineConfig::XeonX5670(), c);
  c.policy = ExecPolicy::kAmac;
  const SimResult amac = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_GT(amac.ThroughputPerKilocycle(),
            base.ThroughputPerKilocycle() * 2.5);
}

TEST(MemsimTest, IrregularChainsHurtGpAndSppMoreThanAmac) {
  // Zipf-ish mixture: mostly 1-node chains with a heavy tail.
  std::vector<uint32_t> lengths;
  for (uint32_t i = 0; i < 1000; ++i) {
    lengths.push_back(i % 100 == 0 ? 24 : (i % 10 == 0 ? 6 : 1));
  }
  SimConfig c = BaseConfig(lengths);
  c.stages = 2;
  c.policy = ExecPolicy::kAmac;
  const SimResult amac = Simulate(MachineConfig::XeonX5670(), c);
  c.policy = ExecPolicy::kGroupPrefetch;
  const SimResult gp = Simulate(MachineConfig::XeonX5670(), c);
  c.policy = ExecPolicy::kSoftwarePipelined;
  const SimResult spp = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_GT(amac.ThroughputPerKilocycle(), gp.ThroughputPerKilocycle());
  EXPECT_GT(amac.ThroughputPerKilocycle(), spp.ThroughputPerKilocycle());
}

TEST(MemsimTest, PrefetchedEnginesSaturateOnXeonGq) {
  // Fig. 7 shape: AMAC throughput stops scaling near 4 threads because
  // 4 threads x 10 MSHRs exceed the 32-entry LLC queue.
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  std::vector<double> throughput;
  for (uint32_t t : {1u, 2u, 4u, 6u}) {
    c.num_threads = t;
    throughput.push_back(
        Simulate(MachineConfig::XeonX5670(), c).ThroughputPerKilocycle());
  }
  const double s12 = throughput[1] / throughput[0];  // 1 -> 2 threads
  const double s46 = throughput[3] / throughput[2];  // 4 -> 6 threads
  EXPECT_GT(s12, 1.6);  // near-linear at low thread counts
  EXPECT_LT(s46, 1.25);  // saturated by 4+ threads
  c.num_threads = 6;
  EXPECT_GT(Simulate(MachineConfig::XeonX5670(), c).gq_full_waits, 0u);
}

TEST(MemsimTest, BaselineKeepsScalingWhereAmacSaturates) {
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  auto scaling = [&](ExecPolicy e) {
    c.policy = e;
    c.num_threads = 1;
    const double t1 =
        Simulate(MachineConfig::XeonX5670(), c).ThroughputPerKilocycle();
    c.num_threads = 6;
    const double t6 =
        Simulate(MachineConfig::XeonX5670(), c).ThroughputPerKilocycle();
    return t6 / t1;
  };
  EXPECT_GT(scaling(ExecPolicy::kSequential), scaling(ExecPolicy::kAmac));
}

TEST(MemsimTest, ScatteringAcrossSocketsRelievesGqPressure) {
  // Table 4 "2+2": four threads on two sockets behave like 2 threads per
  // socket; MSHR-hit backpressure drops versus 4 on one socket.
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  c.num_threads = 4;
  c.scatter_sockets = false;
  const SimResult packed = Simulate(MachineConfig::XeonX5670(), c);
  c.scatter_sockets = true;
  const SimResult spread = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_GT(spread.ThroughputPerKilocycle(),
            packed.ThroughputPerKilocycle());
  EXPECT_LE(spread.gq_full_waits, packed.gq_full_waits);
}

TEST(MemsimTest, T4ScalesAcrossPhysicalCores) {
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  c.num_threads = 1;
  const double t1 =
      Simulate(MachineConfig::SparcT4(), c).ThroughputPerKilocycle();
  c.num_threads = 8;
  const double t8 =
      Simulate(MachineConfig::SparcT4(), c).ThroughputPerKilocycle();
  EXPECT_GT(t8 / t1, 5.0);  // near-linear over 8 physical cores
}

TEST(MemsimTest, SmtSharesCoreResources) {
  // Going from 8 threads (1/core) to 32 (4/core) on T4 helps much less
  // than 4x: SMT threads share issue bandwidth and MSHRs.
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  c.lookups_per_thread = 1000;
  c.num_threads = 8;
  const double t8 =
      Simulate(MachineConfig::SparcT4(), c).ThroughputPerKilocycle();
  c.num_threads = 32;
  const double t32 =
      Simulate(MachineConfig::SparcT4(), c).ThroughputPerKilocycle();
  EXPECT_GT(t32, t8);
  EXPECT_LT(t32 / t8, 3.0);
}

TEST(MemsimTest, MshrHitBackpressureRisesWithThreads) {
  // Table 4 shape: queue-delayed fills are ~zero below the GQ limit, rise
  // steeply at 4-6 threads, and the 2+2 split recovers.
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  auto hits = [&](uint32_t threads, bool scatter) {
    c.num_threads = threads;
    c.scatter_sockets = scatter;
    return Simulate(MachineConfig::XeonX5670(), c).mshr_hits_per_kinstr;
  };
  EXPECT_LT(hits(2, false), 1.0);
  EXPECT_GT(hits(6, false), hits(4, false));
  EXPECT_GT(hits(4, false), 5.0);
  EXPECT_LT(hits(4, true), hits(4, false) / 2);  // "2+2"
}

TEST(MemsimTest, IpcDegradesWithThreadsOnXeon) {
  // Table 4: average per-thread IPC at 6 threads is ~2x worse than at 1.
  const auto lengths = FixedWalkLengths(100, 4);
  SimConfig c = BaseConfig(lengths);
  c.policy = ExecPolicy::kAmac;
  c.num_threads = 1;
  const double ipc1 = Simulate(MachineConfig::XeonX5670(), c).ipc;
  c.num_threads = 6;
  const double ipc6 = Simulate(MachineConfig::XeonX5670(), c).ipc;
  EXPECT_LT(ipc6, ipc1 * 0.75);
}

TEST(MemsimDeathTest, TooManyThreadsRejected) {
  const auto lengths = FixedWalkLengths(10, 1);
  SimConfig c = BaseConfig(lengths);
  c.num_threads = 1000;
  EXPECT_DEATH(Simulate(MachineConfig::XeonX5670(), c),
               "more threads than hardware contexts");
}

TEST(WorkloadTest, FixedWalkLengths) {
  const auto lengths = FixedWalkLengths(10, 4);
  EXPECT_EQ(lengths.size(), 10u);
  for (uint32_t l : lengths) EXPECT_EQ(l, 4u);
}

TEST(WorkloadTest, CollectWalkLengthsMatchesTableShape) {
  const Relation build = MakeDenseUniqueRelation(4096, 131);
  const Relation probe = MakeForeignKeyRelation(4096, 4096, 132);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  const auto lengths = CollectWalkLengths(table, probe, /*early_exit=*/true);
  EXPECT_EQ(lengths.size(), probe.size());
  for (uint32_t l : lengths) {
    EXPECT_GE(l, 1u);
    EXPECT_LE(l, 8u);  // dense keys: short chains
  }
}

TEST(WorkloadTest, SkewedWalksLongerWithoutEarlyExit) {
  const Relation build = MakeZipfRelation(8192, 8192, 1.0, 133);
  const Relation probe = MakeZipfRelation(8192, 8192, 1.0, 134);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  const auto full = CollectWalkLengths(table, probe, false);
  const auto early = CollectWalkLengths(table, probe, true);
  uint64_t full_sum = 0, early_sum = 0;
  for (uint32_t l : full) full_sum += l;
  for (uint32_t l : early) early_sum += l;
  EXPECT_GE(full_sum, early_sum);
  EXPECT_GT(*std::max_element(full.begin(), full.end()), 4u);
}

}  // namespace
}  // namespace amac::memsim
