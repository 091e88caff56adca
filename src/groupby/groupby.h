// Group-by driver: aggregates an input relation into an AggregateTable
// through the unified runtime, single- or multi-threaded.
//
// The entry point takes an `Executor` (core/pipeline.h) and drives the
// generic GroupByOp stage machine under every policy (morsel-driven when
// multi-threaded); kSequential runs it with prefetches off, which is the
// paper's Baseline.  The result is the runtime's unified RunStats.
#pragma once

#include <cstdint>

#include "core/pipeline.h"
#include "core/scheduler.h"
#include "groupby/agg_table.h"
#include "relation/relation.h"

namespace amac {

/// Aggregate `input` into `table` (which must be empty and sized for the
/// expected number of groups) under the executor's policy.  The returned
/// RunStats carry inputs = |input|, outputs = resulting group count, and
/// checksum = the table's order-independent checksum, all read off one
/// AggregateTable::Summarize pass on the executor's team; with `summary`,
/// that pass's full result (rows included) is stored there too.
RunStats RunGroupBy(Executor& exec, const Relation& input,
                    AggregateTable* table, GroupSummary* summary = nullptr);

}  // namespace amac
