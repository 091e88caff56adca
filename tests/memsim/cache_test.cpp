// Cache-hierarchy model tests (src/memsim/cache/): hand-computed true-LRU
// oracles on a tiny CacheLevel, write-back/write-allocate accounting, the
// inclusive-hierarchy invariant under churn, and hierarchy-mode Simulate
// determinism/locality behaviors.
#include "memsim/cache/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "memsim/cache/trace.h"
#include "memsim/memsim.h"

namespace amac::memsim {
namespace {

// Addresses in distinct lines of the same set of a 1-set cache.
constexpr uint64_t kA = 0 * 64, kB = 1 * 64, kC = 2 * 64, kD = 3 * 64;

TEST(CacheLevelTest, LruEvictsLeastRecentlyTouched) {
  CacheLevel level(/*sets=*/1, /*ways=*/2);
  EXPECT_FALSE(level.Probe(kA));
  EXPECT_FALSE(level.Fill(kA, false, false).valid);  // empty way, no victim
  EXPECT_FALSE(level.Fill(kB, false, false).valid);
  // Touch A: B becomes the LRU line.
  EXPECT_TRUE(level.Touch(kA, false));
  const CacheLevel::Victim v = level.Fill(kC, false, false);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.addr, kB);
  EXPECT_TRUE(level.Probe(kA));
  EXPECT_TRUE(level.Probe(kC));
  EXPECT_FALSE(level.Probe(kB));
  EXPECT_EQ(level.evictions, 1u);
}

TEST(CacheLevelTest, FillOrderIsLruWithoutTouches) {
  CacheLevel level(1, 2);
  level.Fill(kA, false, false);
  level.Fill(kB, false, false);
  // No touches: A is oldest, so C evicts A, then D evicts B.
  EXPECT_EQ(level.Fill(kC, false, false).addr, kA);
  EXPECT_EQ(level.Fill(kD, false, false).addr, kB);
}

TEST(CacheLevelTest, WriteBackOnlyForDirtyVictims) {
  CacheLevel level(1, 1);
  level.Fill(kA, /*is_write=*/true, false);  // write-allocate, dirty
  const CacheLevel::Victim dirty = level.Fill(kB, false, false);
  ASSERT_TRUE(dirty.valid);
  EXPECT_TRUE(dirty.dirty);
  EXPECT_EQ(level.writebacks, 1u);
  // B was filled clean and never written: clean eviction.
  const CacheLevel::Victim clean = level.Fill(kC, false, false);
  ASSERT_TRUE(clean.valid);
  EXPECT_FALSE(clean.dirty);
  EXPECT_EQ(level.writebacks, 1u);
}

TEST(CacheLevelTest, TouchWriteDirtiesResidentLine) {
  CacheLevel level(1, 2);
  level.Fill(kA, false, false);
  EXPECT_TRUE(level.Touch(kA, /*is_write=*/true));
  level.Fill(kB, false, false);
  level.Touch(kB, false);  // A is LRU
  EXPECT_TRUE(level.Fill(kC, false, false).dirty);
}

TEST(CacheLevelTest, PrefetchedFlagConsumedOnce) {
  CacheLevel level(1, 2);
  level.Fill(kA, false, /*prefetched=*/true);
  EXPECT_TRUE(level.ConsumePrefetchedFlag(kA));
  EXPECT_FALSE(level.ConsumePrefetchedFlag(kA));  // credit spent
  level.Fill(kB, false, false);
  EXPECT_FALSE(level.ConsumePrefetchedFlag(kB));  // demand fill, no credit
}

TEST(CacheLevelTest, SetIndexingSeparatesSets) {
  CacheLevel level(/*sets=*/2, /*ways=*/1);
  // kA -> set 0, kB -> set 1: both fit in a 2-set direct-mapped cache.
  level.Fill(kA, false, false);
  level.Fill(kB, false, false);
  EXPECT_TRUE(level.Probe(kA));
  EXPECT_TRUE(level.Probe(kB));
  // kC maps back to set 0 and evicts kA, not kB.
  EXPECT_EQ(level.Fill(kC, false, false).addr, kA);
  EXPECT_TRUE(level.Probe(kB));
}

/// A deliberately tiny hierarchy so churn forces constant eviction and
/// back-invalidation through every level.
HierarchyConfig TinyHierarchy() {
  HierarchyConfig h;
  h.l1d = CacheLevelConfig{2, 2, 4, 10};
  h.l2 = CacheLevelConfig{4, 2, 10, 16};
  h.llc = CacheLevelConfig{8, 2, 40, 32};
  h.dram = DramConfig{2, 8192, 100, 160};
  return h;
}

TEST(CacheHierarchyTest, InclusiveInvariantHoldsUnderChurn) {
  CacheHierarchy h(TinyHierarchy(), /*num_cores=*/2,
                   /*cores_per_socket=*/2, PrefetcherKind::kNone);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < 4000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Small footprint relative to the tiny LLC: continuous conflict
    // evictions, which is exactly when back-invalidation must fire.
    const uint64_t addr = (x >> 33) % (64 * 64);
    h.Access(i % 2, addr, static_cast<uint32_t>(x % 7), i % 3 == 0, i);
    if (i % 256 == 0) {
      ASSERT_TRUE(h.CheckInclusive()) << "access " << i;
    }
  }
  EXPECT_TRUE(h.CheckInclusive());
  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.l1_hits + s.l1_misses, 4000u);
  // Writes churned through tiny caches: dirty victims must write back.
  EXPECT_GT(s.writebacks, 0u);
  EXPECT_GT(s.llc_misses, 0u);
}

TEST(CacheHierarchyTest, RepeatAccessHitsL1) {
  CacheHierarchy h(HierarchyConfig::XeonX5670(), 1, 6,
                   PrefetcherKind::kNone);
  const auto first = h.Access(0, 0x1000, 0, false, 0);
  EXPECT_EQ(first.level, MemLevel::kDram);  // cold
  const auto second = h.Access(0, 0x1000, 0, false, 100);
  EXPECT_EQ(second.level, MemLevel::kL1);
  EXPECT_EQ(second.latency, HierarchyConfig::XeonX5670().l1d.latency);
  // Classify peeks without mutating: still an L1 hit afterwards.
  EXPECT_EQ(h.Classify(0, 0x1000), MemLevel::kL1);
  EXPECT_EQ(h.Access(0, 0x1000, 0, false, 200).level, MemLevel::kL1);
}

TEST(CacheHierarchyTest, CoresHavePrivateL1ButSharedLlc) {
  CacheHierarchy h(HierarchyConfig::XeonX5670(), 2, 6,
                   PrefetcherKind::kNone);
  h.Access(0, 0x2000, 0, false, 0);
  // Same socket, different core: misses L1/L2 but hits the shared LLC.
  EXPECT_EQ(h.Classify(1, 0x2000), MemLevel::kLLC);
  const auto out = h.Access(1, 0x2000, 0, false, 10);
  EXPECT_EQ(out.level, MemLevel::kLLC);
}

TEST(CacheHierarchyTest, DramRowBufferHits) {
  CacheHierarchy h(HierarchyConfig::XeonX5670(), 1, 6,
                   PrefetcherKind::kNone);
  // Two cold misses in the same 8 KB DRAM row: second is a row hit.
  const auto a = h.Access(0, 0x100000, 0, false, 0);
  const auto b = h.Access(0, 0x100000 + 64, 0, false, 10);
  EXPECT_EQ(a.level, MemLevel::kDram);
  EXPECT_EQ(b.level, MemLevel::kDram);
  EXPECT_FALSE(a.dram_row_hit);
  EXPECT_TRUE(b.dram_row_hit);
  EXPECT_LT(b.latency, a.latency);
  EXPECT_EQ(h.stats().dram_row_hits, 1u);
}

// ------------------------------------------------------- hierarchy mode --

SimConfig HierarchyConfigFor(const AccessTrace& trace, ExecPolicy policy) {
  SimConfig c;
  c.policy = policy;
  c.inflight = 10;
  c.stages = 2;
  c.num_threads = 2;
  c.lookups_per_thread = 1000;
  c.trace = &trace;
  return c;
}

TEST(HierarchySimTest, DeterministicAcrossRuns) {
  const AccessTrace trace =
      PointerChaseAccessTrace(2000, 4, 8ull << 20, 42);
  const SimConfig c = HierarchyConfigFor(trace, ExecPolicy::kAmac);
  const SimResult a = Simulate(MachineConfig::XeonX5670(), c);
  const SimResult b = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.cache.l1_hits, b.cache.l1_hits);
  EXPECT_EQ(a.cache.llc_misses, b.cache.llc_misses);
  EXPECT_EQ(a.cache.dram_row_hits, b.cache.dram_row_hits);
  EXPECT_EQ(a.prefetch_drops, b.prefetch_drops);
}

TEST(HierarchySimTest, SmallFootprintIsCacheResident) {
  // A chase inside 64 KB fits L2: after warmup, almost no DRAM trips —
  // and the cache-resident run is much faster than a DRAM-bound one.
  const AccessTrace small = PointerChaseAccessTrace(2000, 4, 64 << 10, 7);
  const AccessTrace big = PointerChaseAccessTrace(2000, 4, 256ull << 20, 7);
  const SimResult r_small = Simulate(
      MachineConfig::XeonX5670(), HierarchyConfigFor(small, ExecPolicy::kAmac));
  const SimResult r_big = Simulate(
      MachineConfig::XeonX5670(), HierarchyConfigFor(big, ExecPolicy::kAmac));
  // Demand DRAM trips per access: the small chase pays only its ~1k cold
  // lines; the big one misses on nearly every walk step.
  const auto dram_per_access = [](const SimResult& r) {
    return static_cast<double>(r.cache.llc_misses) /
           static_cast<double>(r.cache.l1_hits + r.cache.l1_misses);
  };
  EXPECT_LT(dram_per_access(r_small), 0.2);
  EXPECT_GT(dram_per_access(r_big), 0.5);
  EXPECT_LT(r_small.CyclesPerLookup(), r_big.CyclesPerLookup());
}

TEST(HierarchySimTest, AmacBeatsBaselineOnDramBoundChase) {
  const AccessTrace trace =
      PointerChaseAccessTrace(2000, 4, 256ull << 20, 3);
  const SimResult base =
      Simulate(MachineConfig::XeonX5670(),
               HierarchyConfigFor(trace, ExecPolicy::kSequential));
  const SimResult amac = Simulate(
      MachineConfig::XeonX5670(), HierarchyConfigFor(trace, ExecPolicy::kAmac));
  EXPECT_GT(amac.ThroughputPerKilocycle(),
            1.5 * base.ThroughputPerKilocycle());
}

TEST(HierarchySimTest, FlatModeUnaffectedByHierarchyFields) {
  // trace == nullptr keeps the flat model byte-for-byte: zero cache stats.
  const std::vector<uint32_t> lengths(100, 4);
  SimConfig c;
  c.chain_lengths = &lengths;
  c.lookups_per_thread = 500;
  const SimResult r = Simulate(MachineConfig::XeonX5670(), c);
  EXPECT_EQ(r.cache.l1_hits + r.cache.l1_misses, 0u);
  EXPECT_EQ(r.cache.dram_accesses, 0u);
  EXPECT_EQ(r.prefetch_drops, 0u);
}

}  // namespace
}  // namespace amac::memsim
