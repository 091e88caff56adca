// Random walks over a CSR graph as a generic-engine operation.
//
// One walker performs `hops` steps: at vertex v it (a) reads v's adjacency
// row bounds (dependent access #1), (b) picks a random edge and reads the
// target id (dependent access #2), then moves there.  Per-walker RNG state
// lives inside the operation state, so the walk trajectory — and therefore
// the result — is completely independent of the schedule: every ExecPolicy
// of core/scheduler.h (and any thread count under the Executor)
// visits identical vertices.
//
// This is the paper's §8 "graph workloads" extension expressed in the §6
// framework: no new scheduling code was written for it.
#pragma once

#include <cstdint>

#include "common/hash.h"
#include "common/prefetch.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "graph/csr.h"

namespace amac {

/// Accumulates a schedule-independent checksum of visited vertices.
class WalkSink {
 public:
  void Visit(uint64_t walker, uint64_t vertex) {
    sum_ += Mix64(walker * 0x9e3779b97f4a7c15ull + vertex);
    ++visits_;
  }
  uint64_t checksum() const { return sum_; }
  uint64_t visits() const { return visits_; }

  void Merge(const WalkSink& other) {
    sum_ += other.sum_;
    visits_ += other.visits_;
  }

 private:
  uint64_t sum_ = 0;
  uint64_t visits_ = 0;
};

/// Pipeline source (core/pipeline.h): input i is walker i; every vertex
/// visit emits Tuple{vertex, walker} downstream.  Feeding an
/// AggregateStage keyed by vertex computes visit counts — a fused
/// graph-analytics pipeline with no walk trace materialized.  RandomWalkOp
/// below adapts the same machine to the engine Operation concept, so the
/// trajectories (per-walker RNG, schedule-independent) are identical on
/// both paths.
class WalkSource {
 public:
  struct State {
    uint64_t walker;
    uint64_t vertex;
    uint64_t rng;        ///< splitmix64 state: schedule-independent draws
    uint64_t row_begin;
    uint32_t row_len;
    uint32_t hops_left;
    uint8_t stage;       ///< 0 = row bounds prefetched, 1 = edge prefetched
    uint64_t pending_edge_index;
  };

  WalkSource(const CsrGraph& graph, uint64_t num_walkers, uint32_t hops,
             uint64_t seed)
      : graph_(&graph), num_walkers_(num_walkers), hops_(hops), seed_(seed) {}

  uint64_t size() const { return num_walkers_; }

  void Start(State& st, uint64_t idx) {
    st.walker = idx;
    st.rng = seed_ ^ Mix64(idx + 1);
    st.vertex = SplitMix64(st.rng) % graph_->num_vertices();
    st.hops_left = hops_;
    st.stage = 0;
    Prefetch(graph_->offsets() + st.vertex);  // covers v and v+1 (same line
    Prefetch(graph_->offsets() + st.vertex + 1);  // unless straddling)
  }

  template <typename Emit>
  StepStatus Step(State& st, Emit&& emit) {
    if (st.stage == 0) {
      // Row bounds arrived: record the visit, pick the random edge.
      emit(Tuple{static_cast<int64_t>(st.vertex),
                 static_cast<int64_t>(st.walker)});
      st.row_begin = graph_->RowBegin(st.vertex);
      st.row_len = graph_->OutDegree(st.vertex);
      if (st.row_len == 0 || st.hops_left == 0) return StepStatus::kDone;
      st.pending_edge_index =
          st.row_begin + SplitMix64(st.rng) % st.row_len;
      Prefetch(graph_->edges() + st.pending_edge_index);
      st.stage = 1;
      return StepStatus::kParked;
    }
    // Edge target arrived: move there and fetch its row bounds.
    st.vertex = graph_->edges()[st.pending_edge_index];
    --st.hops_left;
    st.stage = 0;
    Prefetch(graph_->offsets() + st.vertex);
    Prefetch(graph_->offsets() + st.vertex + 1);
    return StepStatus::kParked;
  }

 private:
  const CsrGraph* graph_;
  uint64_t num_walkers_;
  uint32_t hops_;
  uint64_t seed_;
};

/// Root pipeline builder: `num_walkers` random walks of `hops` hops.
inline Pipeline<WalkSource> Walks(const CsrGraph& graph, uint64_t num_walkers,
                                  uint32_t hops, uint64_t seed) {
  return From(WalkSource(graph, num_walkers, hops, seed));
}

/// The walk as an engine Operation (WalkSource driven with a WalkSink);
/// kept for the ext_graph_walks ablation and the single-op Executor path.
class RandomWalkOp {
 public:
  using State = WalkSource::State;

  RandomWalkOp(const CsrGraph& graph, uint32_t hops, uint64_t seed,
               WalkSink& sink)
      : source_(graph, /*num_walkers=*/0, hops, seed), sink_(sink) {}

  void Start(State& st, uint64_t idx) { source_.Start(st, idx); }

  StepStatus Step(State& st) {
    return source_.Step(st, [this](const Tuple& row) {
      sink_.Visit(static_cast<uint64_t>(row.payload),
                  static_cast<uint64_t>(row.key));
    });
  }

 private:
  WalkSource source_;
  WalkSink& sink_;
};

}  // namespace amac
