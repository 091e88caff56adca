// AggregateTable::Summarize: the one pass that yields groups, folded rows
// and checksum together must equal a ForEachGroup reference, inline and
// split by bucket range on a team.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseline_loops.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "groupby/agg_table.h"
#include "relation/relation.h"

namespace amac {
namespace {

GroupSummary Reference(const AggregateTable& table) {
  GroupSummary ref;
  table.ForEachGroup([&](const GroupNode& g) {
    uint64_t h = Mix64(static_cast<uint64_t>(g.key));
    h = Mix64(h ^ static_cast<uint64_t>(g.count));
    h = Mix64(h ^ static_cast<uint64_t>(g.sum));
    h = Mix64(h ^ static_cast<uint64_t>(g.min));
    h = Mix64(h ^ static_cast<uint64_t>(g.max));
    h = Mix64(h ^ g.sumsq);
    ++ref.groups;
    ref.rows += static_cast<uint64_t>(g.count);
    ref.checksum += h;
  });
  return ref;
}

void ExpectSummary(const GroupSummary& got, const GroupSummary& want) {
  EXPECT_EQ(got.groups, want.groups);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.checksum, want.checksum);
}

TEST(GroupSummaryTest, OnePassMatchesForEachGroupReference) {
  ThreadPool team(3);
  // Two buckets (fewer than the team's threads), 64 KiB and 8 MiB of them.
  for (const uint64_t groups :
       {uint64_t{2}, uint64_t{1000}, uint64_t{1} << 17}) {
    Relation input = MakeGroupByInput(groups, 3, 11);
    // One group keyed by the empty-slot sentinel itself.
    input[0].key = GroupNode::kEmptyGroupKey;
    input[1].key = GroupNode::kEmptyGroupKey;
    AggregateTable table(groups, AggregateTable::Options{}, &team);
    GroupByBaseline(input, 0, input.size(), table);
    const GroupSummary want = Reference(table);
    EXPECT_EQ(want.rows, input.size());
    ExpectSummary(table.Summarize(), want);
    ExpectSummary(table.Summarize(&team), want);
    EXPECT_EQ(table.CountGroups(), want.groups);
    EXPECT_EQ(table.Checksum(), want.checksum);
    bool sentinel_group = false;
    table.ForEachGroup([&](const GroupNode& g) {
      sentinel_group |= g.key == GroupNode::kEmptyGroupKey;
    });
    EXPECT_TRUE(sentinel_group);
  }
}

}  // namespace
}  // namespace amac
