#include "memsim/rank_grid.h"

#include <algorithm>

#include "common/macros.h"

namespace amac::memsim {

std::vector<GridPoint> DefaultRankGrid() {
  std::vector<GridPoint> grid;
  grid.push_back(GridPoint{ExecPolicy::kSequential, 1});
  for (const ExecPolicy policy :
       {ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined,
        ExecPolicy::kAmac, ExecPolicy::kCoroutine}) {
    for (const uint32_t m : {4u, 10u, 16u, 32u}) {
      grid.push_back(GridPoint{policy, m});
    }
  }
  return grid;
}

RankResult RankGrid(const MachineConfig& machine, const AccessTrace& trace,
                    const RankOptions& options) {
  AMAC_CHECK(trace.lookups() > 0);
  const std::vector<GridPoint> grid =
      options.grid.empty() ? DefaultRankGrid() : options.grid;
  const uint64_t lookups =
      options.lookups_per_thread > 0
          ? options.lookups_per_thread
          : std::min<uint64_t>(trace.lookups(), 8192);

  RankResult out;
  out.table.reserve(grid.size());
  for (const GridPoint& point : grid) {
    SimConfig sim;
    sim.policy = point.policy;
    sim.inflight = point.inflight;
    sim.stages = options.stages;
    sim.num_threads = std::max(1u, options.num_threads);
    sim.lookups_per_thread = lookups;
    sim.trace = &trace;
    sim.prefetcher = options.prefetcher;
    RankEntry entry;
    entry.point = point;
    entry.sim = Simulate(machine, sim);
    entry.cycles_per_input = entry.sim.CyclesPerLookup();
    out.table.push_back(std::move(entry));
  }
  std::sort(out.table.begin(), out.table.end(),
            [](const RankEntry& a, const RankEntry& b) {
              return a.cycles_per_input < b.cycles_per_input;
            });
  // Sub-1% cycle differences are below the model's resolution (in a
  // memory-bound regime the stage instruction cost hides entirely behind
  // latency, so e.g. AMAC and its coroutine-framed variant simulate
  // near-identically).  Within each run of near-tied entries, rank the
  // engine with the cheaper stage first: at equal modeled cycles the
  // lighter code path can only be faster on real hardware.
  constexpr double kTiePrecision = 0.01;
  const EngineCosts costs{};
  size_t run_begin = 0;
  for (size_t i = 1; i <= out.table.size(); ++i) {
    const bool tied =
        i < out.table.size() &&
        out.table[i].cycles_per_input <=
            out.table[run_begin].cycles_per_input * (1.0 + kTiePrecision);
    if (tied) continue;
    std::sort(out.table.begin() + run_begin, out.table.begin() + i,
              [&costs](const RankEntry& a, const RankEntry& b) {
                const double ca = costs.StageInstr(a.point.policy);
                const double cb = costs.StageInstr(b.point.policy);
                if (ca != cb) return ca < cb;
                if (a.cycles_per_input != b.cycles_per_input) {
                  return a.cycles_per_input < b.cycles_per_input;
                }
                if (a.point.policy != b.point.policy) {
                  return a.point.policy < b.point.policy;
                }
                return a.point.inflight < b.point.inflight;
              });
    run_begin = i;
  }
  out.winner = out.table.front().point;
  out.winner_cycles_per_input = out.table.front().cycles_per_input;
  return out;
}

}  // namespace amac::memsim
