// Coroutine interleaver tests: the task mechanics, and the generic
// coroutine adapter (ExecPolicy::kCoroutine) running each layer's op to
// results identical to the hand Listing-1 probe and the Baseline oracles.
#include "coro/interleaver.h"

#include <gtest/gtest.h>

#include <vector>

#include "baseline_loops.h"
#include "bst/bst_search.h"
#include "core/ops.h"
#include "core/scheduler.h"
#include "coro/task.h"
#include "join/join_ops.h"
#include "join/probe_kernels.h"
#include "join/sink.h"
#include "relation/relation.h"
#include "skiplist/skiplist_ops.h"

namespace amac {
namespace {

// --- Task mechanics ---------------------------------------------------------

coro::Task CountingTask(int* counter, int yields) {
  for (int i = 0; i < yields; ++i) {
    ++*counter;
    co_await coro::YieldAwait{};
  }
  ++*counter;
}

TEST(CoroTaskTest, LazyStartAndResumeToCompletion) {
  int counter = 0;
  coro::Task task = CountingTask(&counter, 2);
  EXPECT_EQ(counter, 0);  // lazily started
  EXPECT_FALSE(task.Resume());
  EXPECT_EQ(counter, 1);
  EXPECT_FALSE(task.Resume());
  EXPECT_EQ(counter, 2);
  EXPECT_TRUE(task.Resume());
  EXPECT_EQ(counter, 3);
}

TEST(CoroTaskTest, MoveTransfersHandle) {
  int counter = 0;
  coro::Task a = CountingTask(&counter, 0);
  coro::Task b = std::move(a);
  EXPECT_FALSE(a.Valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.Valid());
  EXPECT_TRUE(b.Resume());
}

TEST(CoroTaskTest, DestroyWithoutResumeDoesNotLeak) {
  int counter = 0;
  {
    coro::Task task = CountingTask(&counter, 5);
    (void)task;
  }
  EXPECT_EQ(counter, 0);
}

TEST(CoroInterleaverTest, RunsAllTasksAnyWidth) {
  for (uint32_t width : {1u, 2u, 7u, 32u}) {
    int counter = 0;
    coro::Interleave(
        [&](uint64_t) { return CountingTask(&counter, 3); }, 20, width);
    EXPECT_EQ(counter, 20 * 4) << "width " << width;
  }
}

TEST(CoroInterleaverTest, ZeroInputsIsNoop) {
  coro::Interleave([&](uint64_t) { return coro::Task(); }, 0, 4);
  SUCCEED();
}

// --- the generic coroutine adapter vs the oracles ---------------------------

/// Runs `op` over [begin, end) under the coroutine schedule of `width`.
template <typename Op>
void RunCoroutine(Op& op, uint64_t begin, uint64_t end, uint32_t width) {
  OffsetOp<Op> rebased(op, begin);
  amac::Run(ExecPolicy::kCoroutine, SchedulerParams{width, 1}, rebased,
      end - begin);
}

TEST(CoroProbeTest, MatchesHandWrittenAmac) {
  const uint64_t n = 4000;
  const Relation build = MakeZipfRelation(n, n, 0.75, 121);
  const Relation probe = MakeZipfRelation(n, n, 0.75, 122);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);

  CountChecksumSink hand, coro_sink;
  ProbeAmac<false>(table, probe, 0, probe.size(), 10, hand);
  ProbeOp<false, CountChecksumSink> op(table, probe, coro_sink);
  RunCoroutine(op, 0, probe.size(), 10);
  EXPECT_EQ(coro_sink.matches(), hand.matches());
  EXPECT_EQ(coro_sink.checksum(), hand.checksum());
}

TEST(CoroProbeTest, EarlyExitUniqueKeys) {
  const uint64_t n = 2000;
  const Relation build = MakeDenseUniqueRelation(n, 123);
  const Relation probe = MakeForeignKeyRelation(n, n, 124);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  CountChecksumSink sink;
  ProbeOp<true, CountChecksumSink> op(table, probe, sink);
  RunCoroutine(op, 0, n, 8);
  EXPECT_EQ(sink.matches(), n);
}

TEST(CoroBstTest, MatchesBaseline) {
  const uint64_t n = 3000;
  const Relation rel = MakeDenseUniqueRelation(n, 125);
  const BinarySearchTree tree = BuildBst(rel);
  const Relation probe = MakeZipfRelation(n, n + 100, 0.0, 126);
  CountChecksumSink base, coro_sink;
  BstSearchBaseline(tree, probe, 0, probe.size(), base);
  BstSearchOp<CountChecksumSink> op(tree, probe, coro_sink);
  RunCoroutine(op, 0, probe.size(), 10);
  EXPECT_EQ(coro_sink.matches(), base.matches());
  EXPECT_EQ(coro_sink.checksum(), base.checksum());
}

TEST(CoroSkipListTest, MatchesBaseline) {
  const uint64_t n = 2000;
  SkipList list(n);
  Rng rng(11);
  const Relation rel = MakeDenseUniqueRelation(n, 127);
  for (const Tuple& t : rel) list.InsertUnsync(t.key, t.payload, rng);
  const Relation probe = MakeZipfRelation(n, n + 50, 0.0, 128);
  CountChecksumSink base, coro_sink;
  SkipSearchBaseline(list, probe, 0, probe.size(), base);
  SkipSearchOp<CountChecksumSink> op(list, probe, coro_sink);
  RunCoroutine(op, 0, probe.size(), 8);
  EXPECT_EQ(coro_sink.matches(), base.matches());
  EXPECT_EQ(coro_sink.checksum(), base.checksum());
}

TEST(CoroProbeTest, SubrangeHonored) {
  const uint64_t n = 1000;
  const Relation build = MakeDenseUniqueRelation(n, 129);
  const Relation probe = MakeForeignKeyRelation(n, n, 130);
  ChainedHashTable table(build.size(), ChainedHashTable::Options{});
  BuildTableUnsync(build, &table);
  CountChecksumSink sink;
  ProbeOp<true, CountChecksumSink> op(table, probe, sink);
  RunCoroutine(op, 200, 700, 4);
  EXPECT_EQ(sink.matches(), 500u);
}

}  // namespace
}  // namespace amac
