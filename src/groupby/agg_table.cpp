#include "groupby/agg_table.h"

#include <new>
#include <vector>

#include "common/thread_pool.h"

namespace amac {

AggregateTable::AggregateTable(uint64_t expected_groups, Options options,
                               ThreadPool* team)
    : hash_kind_(options.hash_kind),
      // Worst case: every group in an overflow node.
      pool_(expected_groups + 1, NodePool<GroupNode>::Sizing::kAuto,
            "group node pool exhausted") {
  AMAC_CHECK(expected_groups > 0);
  uint64_t nbuckets = NextPow2(static_cast<uint64_t>(
      static_cast<double>(expected_groups) / options.target_nodes_per_bucket +
      0.5));
  nbuckets = std::max<uint64_t>(nbuckets, 1);
  buckets_ = MakeBufferOnTeam<GroupNode>(team, nbuckets);
  bucket_mask_ = nbuckets - 1;
}

void AggregateTable::Clear() {
  for (GroupNode& b : buckets_) new (&b) GroupNode();
  pool_.Reset();
}

void AggregateTable::ForEachGroup(
    const std::function<void(const GroupNode&)>& fn) const {
  for (const GroupNode& head : buckets_) {
    for (const GroupNode* n = &head; n != nullptr; n = n->next) {
      if (n->used) fn(*n);
    }
  }
}

GroupSummary AggregateTable::Summarize(ThreadPool* team) const {
  std::vector<GroupSummary> parts(team != nullptr ? team->size() : 1);
  const GroupNode* const buckets = buckets_.data();
  ForRanges(team, buckets_.size(), [&](uint32_t part, Range range) {
    GroupSummary s;
    for (uint64_t i = range.begin; i < range.end; ++i) {
      for (const GroupNode* g = buckets + i; g != nullptr; g = g->next) {
        if (!g->used) continue;
        uint64_t h = Mix64(static_cast<uint64_t>(g->key));
        h = Mix64(h ^ static_cast<uint64_t>(g->count));
        h = Mix64(h ^ static_cast<uint64_t>(g->sum));
        h = Mix64(h ^ static_cast<uint64_t>(g->min));
        h = Mix64(h ^ static_cast<uint64_t>(g->max));
        h = Mix64(h ^ g->sumsq);
        ++s.groups;
        s.rows += static_cast<uint64_t>(g->count);
        s.checksum += h;
      }
    }
    parts[part] = s;
  });
  GroupSummary total;
  for (const GroupSummary& s : parts) {
    total.groups += s.groups;
    total.rows += s.rows;
    total.checksum += s.checksum;
  }
  return total;
}

uint64_t AggregateTable::CountGroups() const { return Summarize().groups; }

uint64_t AggregateTable::Checksum() const { return Summarize().checksum; }

}  // namespace amac
