// Concurrency analysis of Section 3.1.
//
// For each node v the paper defines:
//   C(v)  (Eq. 2): the BF nodes that may execute concurrently with v, i.e.
//                  BF nodes not ordered with v by (transitive) precedence;
//   F(v):          for a BC node, the BF whose barrier waits for v;
//   X(v):          the BF nodes whose suspension can affect v's execution:
//                  X(v) = C(v), plus F(v) when v is of type BC.
//
// From these, b̄(τ) = max_v |X(v)| bounds the number of simultaneously
// suspended threads that can affect any single node, and
// l̄(τ) = m − b̄(τ) lower-bounds the available concurrency l(t, τ) at all
// times (Section 3.1).
#pragma once

#include <vector>

#include "model/dag_task.h"
#include "util/bitset.h"

namespace rtpool::analysis {

using model::DagTask;
using model::NodeId;

/// X(v): C(v) plus, for BC nodes, the delimiting fork F(v). C(v) excludes
/// v itself (a node never executes concurrently with itself).
util::DynamicBitset affecting_blocking_forks(const DagTask& task, NodeId v);

/// b̄(τ) = max_v |X(v)|; 0 for tasks without BF nodes.
std::size_t max_affecting_forks(const DagTask& task);

/// l̄(τ) = m − b̄(τ). May be zero or negative, in which case the lower
/// bound cannot exclude a deadlock (see deadlock.h).
long available_concurrency_lower_bound(const DagTask& task, std::size_t pool_size);

/// All per-node X(v) sets at once (index = node id) for the partitioning
/// hot loop: fills `out` (resized to node_count()), recycling the bitset
/// storage across calls.
void all_affecting_forks(const DagTask& task,
                         std::vector<util::DynamicBitset>& out);

}  // namespace rtpool::analysis
