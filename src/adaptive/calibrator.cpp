#include "adaptive/calibrator.h"

#include <algorithm>

#include "common/macros.h"

namespace amac {

CalibrationEpisode::CalibrationEpisode(std::vector<GridPoint> candidates,
                                       uint32_t measure_morsels)
    : quota_(std::max(1u, measure_morsels)) {
  AMAC_CHECK(!candidates.empty());
  candidates_.reserve(candidates.size());
  for (const GridPoint& point : candidates) {
    Candidate c;
    c.point = point;
    candidates_.push_back(c);
  }
}

double CalibrationEpisode::CyclesPerInput(const Candidate& c) const {
  // No data sorts last: an unmeasured point must never beat a measured one.
  if (c.inputs == 0) return 1e30;
  return static_cast<double>(c.cycles) / static_cast<double>(c.inputs);
}

CalibrationEpisode::Assignment CalibrationEpisode::Next() {
  if (!done_) {
    for (size_t i = 0; i < candidates_.size(); ++i) {
      Candidate& c = candidates_[i];
      if (!c.alive || c.assigned >= quota_) continue;
      ++c.assigned;
      ++measured_morsels_;
      return Assignment{i, true};
    }
  }
  // Round fully assigned (reports pending) or episode done: ride on the
  // best-known point without blocking the morsel stream.
  return Assignment{best(), false};
}

void CalibrationEpisode::Report(size_t index, uint64_t inputs,
                                uint64_t cycles) {
  AMAC_CHECK(index < candidates_.size());
  Candidate& c = candidates_[index];
  c.inputs += inputs;
  c.cycles += cycles;
  ++c.reported;
  MaybeFinishRound();
}

void CalibrationEpisode::MaybeFinishRound() {
  if (done_) return;
  for (const Candidate& c : candidates_) {
    if (c.alive && c.reported < quota_) return;
  }
  // Round complete: keep the fastest half (ceil, so 2 -> 1 terminates).
  std::vector<size_t> alive;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].alive) alive.push_back(i);
  }
  std::sort(alive.begin(), alive.end(), [&](size_t a, size_t b) {
    return CyclesPerInput(candidates_[a]) < CyclesPerInput(candidates_[b]);
  });
  const size_t keep = (alive.size() + 1) / 2;
  for (size_t rank = keep; rank < alive.size(); ++rank) {
    candidates_[alive[rank]].alive = false;
  }
  if (!first_halving_done_) {
    first_halving_done_ = true;
    first_survivors_.assign(alive.begin(), alive.begin() + keep);
  }
  if (keep <= 1) {
    done_ = true;
    return;
  }
  for (Candidate& c : candidates_) {
    c.assigned = 0;
    c.reported = 0;
  }
}

size_t CalibrationEpisode::best() const {
  size_t best_idx = 0;
  double best_cpi = 1e30;
  bool found_alive = false;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const Candidate& c = candidates_[i];
    // Prefer alive candidates; before any data exists the first candidate
    // wins by default.
    if (found_alive && !c.alive) continue;
    const double cpi = CyclesPerInput(c);
    if ((!found_alive && c.alive) || cpi < best_cpi) {
      best_idx = i;
      best_cpi = cpi;
      found_alive = found_alive || c.alive;
    }
  }
  return best_idx;
}

double CalibrationEpisode::BestCyclesPerInput() const {
  const Candidate& c = candidates_[best()];
  return c.inputs == 0
             ? 0
             : static_cast<double>(c.cycles) / static_cast<double>(c.inputs);
}

std::vector<GridPoint> CalibrationEpisode::Survivors() const {
  std::vector<GridPoint> out;
  if (first_halving_done_) {
    out.reserve(first_survivors_.size());
    for (const size_t i : first_survivors_) {
      out.push_back(candidates_[i].point);
    }
    return out;
  }
  // Mid-first-round: rank the full field by the data so far (unmeasured
  // candidates sort last), so a partial episode still yields a best-first
  // candidate list the governor/cache can act on.
  std::vector<size_t> order(candidates_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CyclesPerInput(candidates_[a]) < CyclesPerInput(candidates_[b]);
  });
  out.reserve(order.size());
  for (const size_t i : order) out.push_back(candidates_[i].point);
  return out;
}

uint64_t AdaptiveMorselSize(uint64_t num_inputs, uint32_t slots) {
  if (num_inputs == 0) return 1;
  const std::vector<GridPoint> grid = Calibrator::Grid();
  const size_t grid_points = grid.size();
  uint32_t max_inflight = 1;
  for (const GridPoint& point : grid) {
    max_inflight = std::max(max_inflight, point.inflight);
  }
  // Room for ~2 tournament rounds' worth of measurement plus steady-state
  // claims on every slot.
  const uint64_t target_morsels =
      8 * static_cast<uint64_t>(grid_points) + 8 * std::max(1u, slots);
  constexpr uint64_t kMaxMorsel = uint64_t{1} << 16;
  const uint64_t floor = std::min<uint64_t>(
      kMaxMorsel, std::max<uint64_t>(128, 4ull * max_inflight));
  return std::clamp(num_inputs / target_morsels, floor, kMaxMorsel);
}

std::vector<GridPoint> Calibrator::Grid() {
  std::vector<GridPoint> grid;
  grid.push_back(GridPoint{ExecPolicy::kSequential, 1});
  // Pure batch vectorization has no meaningful M (one vector in flight);
  // one grid point at the vector width.
  grid.push_back(GridPoint{ExecPolicy::kVectorized, 8});
  for (const ExecPolicy policy :
       {ExecPolicy::kGroupPrefetch, ExecPolicy::kSoftwarePipelined,
        ExecPolicy::kAmac, ExecPolicy::kCoroutine,
        ExecPolicy::kVectorizedAmac}) {
    for (const uint32_t m : kInflightGrid) {
      grid.push_back(GridPoint{policy, m});
    }
  }
  return grid;
}

std::optional<CalibrationResult> Calibrator::Lookup(
    const WorkloadSignature& sig) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sig.valid()) {
    const auto it = cache_.find(sig.Key());
    if (it != cache_.end()) {
      ++hits_;
      return it->second.result;
    }
  }
  ++misses_;
  return std::nullopt;
}

void Calibrator::Store(const WorkloadSignature& sig,
                       const CalibrationResult& result) {
  if (!sig.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  cache_[sig.Key()] = CachedEntry{sig, result};
}

std::optional<CalibrationResult> Calibrator::PeekResult(
    const WorkloadSignature& sig, uint64_t submitted_inputs) const {
  if (!sig.valid()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(sig.Key());
  if (it == cache_.end()) return std::nullopt;
  if (submitted_inputs != 0 &&
      it->second.sig.cardinality_log2 !=
          WorkloadSignature::CardinalityBucket(submitted_inputs)) {
    cache_.erase(it);
    ++stale_evictions_;
    return std::nullopt;
  }
  return it->second.result;
}

uint64_t Calibrator::stale_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_evictions_;
}

uint64_t Calibrator::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t Calibrator::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t Calibrator::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

std::vector<Calibrator::Entry> Calibrator::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> entries;
  entries.reserve(cache_.size());
  for (const auto& [key, cached] : cache_) {
    entries.push_back(Entry{key, cached.result});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.signature_key < b.signature_key;
            });
  return entries;
}

}  // namespace amac
