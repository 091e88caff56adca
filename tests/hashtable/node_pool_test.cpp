// The shared node pool (hashtable/node_pool.h) under concurrent claimants.
//
// Four execution slots insert into one auto-sized ChainedHashTable and one
// AggregateTable, once through an Executor (one op, hence one cursor, per
// slot) and once from raw threads driving cursors directly.  Every node
// must be handed out exactly once; a pool filled to its promised capacity
// must not abort even when every claimant strands a chunk tail; and
// Clear() must restart the pool at its first node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "groupby/agg_table.h"
#include "groupby/groupby_ops.h"
#include "hashtable/chained_table.h"
#include "hashtable/node_pool.h"
#include "join/join_ops.h"
#include "relation/relation.h"

namespace amac {
namespace {

constexpr uint32_t kSlots = 4;

// The tightest auto-sized build the suites run: 8000 tuples over 16 keys
// spill 16 * 249 = 3984 overflow nodes of the 4002 the table promises.
constexpr uint64_t kTuples = 8000;
constexpr uint64_t kKeys = 16;

Relation DuplicateHeavyRelation(uint64_t n, uint64_t distinct_keys) {
  Relation rel(n);
  for (uint64_t i = 0; i < n; ++i) {
    rel[i] = Tuple{static_cast<int64_t>(i % distinct_keys),
                   static_cast<int64_t>(i)};
  }
  return rel;
}

/// Every overflow node linked into the table's chains.  The walk stops
/// past kTuples nodes: a node handed out twice can link chains into a
/// cycle, which must fail the distinctness check rather than hang.
std::vector<const BucketNode*> OverflowNodes(const ChainedHashTable& table) {
  std::vector<const BucketNode*> nodes;
  for (uint64_t b = 0; b < table.num_buckets(); ++b) {
    for (const BucketNode* n = table.buckets()[b].next;
         n != nullptr && nodes.size() <= kTuples; n = n->next) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

uint64_t Distinct(const std::vector<const BucketNode*>& nodes) {
  return std::set<const BucketNode*>(nodes.begin(), nodes.end()).size();
}

TEST(NodePoolTest, ExecutorSlotsBuildTightestChainedTableOnce) {
  const Relation rel = DuplicateHeavyRelation(kTuples, kKeys);
  ChainedHashTable reference(rel.size(), ChainedHashTable::Options{});
  BuildTableUnsync(rel, &reference);
  for (ExecPolicy policy : {ExecPolicy::kAmac, ExecPolicy::kCoroutine,
                            ExecPolicy::kVectorizedAmac}) {
    ChainedHashTable table(rel.size(), ChainedHashTable::Options{});
    // Small morsels: every slot's op (and cursor) serves many morsels.
    Executor exec(ExecConfig{policy, SchedulerParams{8, 1}, kSlots, 64});
    exec.RunOp(rel.size(),
               [&](uint32_t) { return BuildOp<true>(table, rel); });
    const std::vector<const BucketNode*> nodes = OverflowNodes(table);
    ASSERT_EQ(Distinct(nodes), nodes.size()) << ExecPolicyName(policy);
    EXPECT_EQ(nodes.size(), OverflowNodes(reference).size());
    // Claimed nodes beyond those linked are at most one tail per slot.
    EXPECT_GE(table.overflow_nodes_used(), nodes.size());
    EXPECT_LE(table.overflow_nodes_used(),
              nodes.size() + kSlots * kPoolChunkNodes);
    for (int64_t key = 0; key < static_cast<int64_t>(kKeys); ++key) {
      std::vector<int64_t> got, want;
      table.FindAll(key, &got);
      reference.FindAll(key, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << ExecPolicyName(policy) << " key=" << key;
    }
  }
}

TEST(NodePoolTest, ExecutorSlotsGroupIntoOneBucketOnce) {
  // One bucket: every group but the header's lives in a pool node, so the
  // group-by needs all but two of the nodes the table promises.
  constexpr uint64_t kGroups = 512;
  const Relation input = MakeGroupByInput(kGroups, 2, 7);
  AggregateTable::Options options;
  options.target_nodes_per_bucket = static_cast<double>(kGroups);
  AggregateTable table(kGroups, options);
  ASSERT_EQ(table.num_buckets(), 1u);
  Executor exec(
      ExecConfig{ExecPolicy::kAmac, SchedulerParams{8, 1}, kSlots, 64});
  exec.RunOp(input.size(),
             [&](uint32_t) { return GroupByOp<true>(table, input); });
  std::set<const GroupNode*> nodes;
  uint64_t linked = 0;
  for (const GroupNode* g = table.buckets()[0].next;
       g != nullptr && linked <= kGroups; g = g->next) {
    nodes.insert(g);
    ++linked;
  }
  EXPECT_EQ(nodes.size(), linked);
  EXPECT_EQ(linked, kGroups - 1);
  const GroupSummary summary = table.Summarize();
  EXPECT_EQ(summary.groups, kGroups);
  EXPECT_EQ(summary.rows, input.size());
}

/// Raw threads fill a pool to exactly `capacity` handed-out nodes through
/// kPoolMaxClaimants cursors, each of which first takes one node and so
/// strands almost a whole chunk: the worst case the extra capacity covers.
/// Returns every node handed out.
template <typename Node, typename AllocFn>
std::vector<Node*> FillWithStrandedTails(uint64_t capacity, AllocFn alloc) {
  using Cursor = typename NodePool<Node>::Cursor;
  constexpr uint64_t kPerThread = kPoolMaxClaimants / kSlots;
  std::vector<std::vector<Node*>> got(kSlots);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kSlots; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Cursor> cursors(kPerThread);
      for (Cursor& c : cursors) got[t].push_back(alloc(c));
      // The rest of this thread's share, from its last cursor.
      const uint64_t share = capacity / kSlots + (t < capacity % kSlots);
      while (got[t].size() < share) got[t].push_back(alloc(cursors.back()));
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<Node*> all;
  for (const auto& part : got) all.insert(all.end(), part.begin(), part.end());
  return all;
}

TEST(NodePoolTest, RawThreadsFillChainedPoolWithoutSpuriousExhaustion) {
  ChainedHashTable table(kTuples, ChainedHashTable::Options{});
  const uint64_t capacity = kTuples / BucketNode::kTuplesPerNode + 2;
  const std::vector<BucketNode*> all = FillWithStrandedTails<BucketNode>(
      capacity, [&](ChainedHashTable::PoolCursor& c) {
        return table.AllocOverflowNode(c);
      });
  ASSERT_EQ(all.size(), capacity);
  EXPECT_EQ(std::set<BucketNode*>(all.begin(), all.end()).size(), capacity);
  BucketNode* const first = *std::min_element(all.begin(), all.end());

  table.Clear();
  EXPECT_EQ(table.overflow_nodes_used(), 0u);
  ChainedHashTable::PoolCursor cursor;
  EXPECT_EQ(table.AllocOverflowNode(cursor), first);
  EXPECT_EQ(table.AllocOverflowNode(cursor), first + 1);
}

TEST(NodePoolTest, RawThreadsFillGroupPoolWithoutSpuriousExhaustion) {
  constexpr uint64_t kGroups = 4000;
  AggregateTable table(kGroups, AggregateTable::Options{});
  const uint64_t capacity = kGroups + 1;
  const std::vector<GroupNode*> all = FillWithStrandedTails<GroupNode>(
      capacity,
      [&](AggregateTable::PoolCursor& c) { return table.AllocNode(c); });
  ASSERT_EQ(all.size(), capacity);
  EXPECT_EQ(std::set<GroupNode*>(all.begin(), all.end()).size(), capacity);
  GroupNode* const first = *std::min_element(all.begin(), all.end());

  table.Clear();
  AggregateTable::PoolCursor cursor;
  EXPECT_EQ(table.AllocNode(cursor), first);
  EXPECT_EQ(table.AllocNode(cursor), first + 1);
}

TEST(NodePoolTest, CopiedCursorNeverSharesItsSourcesNodes) {
  ChainedHashTable table(kTuples, ChainedHashTable::Options{});
  ChainedHashTable::PoolCursor source;
  BucketNode* a = table.AllocOverflowNode(source);
  ChainedHashTable::PoolCursor copy = source;
  BucketNode* b = table.AllocOverflowNode(copy);
  BucketNode* c = table.AllocOverflowNode(source);
  EXPECT_EQ(c, a + 1);  // the source keeps its chunk
  EXPECT_NE(b, c);      // the copy claimed a chunk of its own
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace amac
