// Simulated ranking of the adaptive calibration grid.
//
// The hierarchy simulator predicts cycles-per-lookup for every
// (policy, M) grid point from a real address trace.  RankGrid runs that
// grid and returns the ranking; ext_memsim compares it with the measured
// grid to validate the model.  Nothing feeds the ranking to the adaptive
// runtime: the governor measures real morsels.
//
// The grid is restricted to the scalar schedules the simulator models
// faithfully (Baseline/GP/SPP/AMAC/Coroutine); the SIMD points' lane
// mechanics are below the model's stage granularity, so ranking them from
// simulated cycles would be noise presented as signal.
#pragma once

#include <vector>

#include "adaptive/calibrator.h"
#include "memsim/cache/trace.h"
#include "memsim/memsim.h"

namespace amac::memsim {

struct RankOptions {
  /// Modeled thread count (calibration runs are per-thread-team, so 1
  /// matches the governor's morsel measurements).
  uint32_t num_threads = 1;
  /// The paper's N (GP/SPP stage provisioning), passed to every sim.
  uint32_t stages = 4;
  /// Hardware prefetcher assumed present on the real machine.
  PrefetcherKind prefetcher = PrefetcherKind::kStride;
  /// Grid to rank; empty uses DefaultRankGrid().
  std::vector<GridPoint> grid;
  /// Lookups simulated per thread; 0 derives from the trace (capped so
  /// ranking stays cheap).
  uint64_t lookups_per_thread = 0;
};

/// Scalar policies x in-flight widths — the simulator's fidelity domain.
std::vector<GridPoint> DefaultRankGrid();

struct RankEntry {
  GridPoint point;
  double cycles_per_input = 0;  ///< simulated cycles per lookup
  SimResult sim;                ///< full per-point simulation result
};

struct RankResult {
  GridPoint winner;
  double winner_cycles_per_input = 0;
  std::vector<RankEntry> table;  ///< ascending cycles-per-input
};

/// Simulate `trace` on `machine` for every grid point and rank the points.
RankResult RankGrid(const MachineConfig& machine, const AccessTrace& trace,
                    const RankOptions& options = {});

}  // namespace amac::memsim
