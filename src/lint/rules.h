// The rtpool-lint rule registry and pipeline.
//
// Every rule enforces a specific condition of the DAC'19 paper (or a basic
// well-formedness requirement the paper's model assumes). Rule ids are
// stable API; tools may filter on them.
//
// The D, T and S families are the Section 2 model itself: the model's
// checker (model/check.h) decides them, for lint and for DagTask alike, and
// lint only maps each defect kind to its rule id and fix hint. Tasks free
// of D/T/S errors become DagTasks for the L, P and C families.
//
//   DAG well-formedness (Section 2 model assumptions)
//     RTP-D1  graph has a cycle (self-loops included); the cycle is printed
//     RTP-D2  duplicate edge
//     RTP-D3  not exactly one source node
//     RTP-D4  not exactly one sink node
//     RTP-D5  graph not weakly connected / unreachable nodes
//     RTP-D6  task has no nodes
//
//   Timing / WCET sanity (Section 2 task parameters)
//     RTP-T1  period or deadline non-positive or non-finite, or D > T
//             (constrained deadlines required)
//     RTP-T2  negative or non-finite WCET, or all WCETs zero
//
//   Structural restrictions on node types (Section 2, restrictions (i)-(iii))
//     RTP-S1  malformed blocking region: BF without children, BF with no or
//             two matching BJs, BC/BJ outside any region, node in two regions
//     RTP-S2  nested blocking regions (BF inside another region)
//     RTP-S3  region boundary violated: an edge crosses the region boundary
//             (restrictions (i)-(iii)), or an NB node sits inside a region
//
//   Deadlock conditions (Section 3)
//     RTP-L1  Lemma 1: b̄(τ) ≥ m — a blocking chain can exhaust the pool;
//             the chain (pivot node + fork set X(v*)) is printed
//     RTP-L2  Lemma 2: wait-for cycle on the global WC graph — m pairwise
//             concurrent forks exist, so the deadlock actually manifests
//             under global work-conserving scheduling; the cycle is printed
//     RTP-L3  Lemma 3 / Eq. (3): a BC node shares its pool thread with a
//             BF in C(v) ∪ {F(v)} under the computed partition
//
//   Pool sizing (Sections 3.1, 4.1)
//     RTP-P1  l̄(τ) = m − b̄(τ) ≤ 0: zero guaranteed concurrency, the
//             limited-concurrency RTA of Section 4.1 degenerates (warning)
//     RTP-P2  pool has more threads than the task has nodes (note)
//     RTP-P3  the requested partitioning algorithm failed (warning)
//
//   Cross-task consistency (Section 2 task-set / pool assignment)
//     RTP-C1  duplicate task names
//     RTP-C2  task priorities not pairwise distinct (warning)
//     RTP-C4  total utilization exceeds m (warning: trivially unschedulable)
#pragma once

#include "lint/diagnostics.h"
#include "model/io.h"

namespace rtpool::lint {

/// Where the node-to-thread partition for the Lemma 3 rules comes from.
enum class PartitionSource {
  kNone,        ///< Skip RTP-L3/RTP-P3 (global-scheduling lint only).
  kWorstFit,    ///< Compute the Section 5 worst-fit baseline placement.
  kAlgorithm1,  ///< Compute the paper's Algorithm 1 placement.
};

/// Run every applicable rule over a model as read (model::read_raw_task_set),
/// however broken. Never throws on model defects — that is the point.
LintReport run_lint(const model::RawTaskSet& raw,
                    PartitionSource partition = PartitionSource::kNone);

}  // namespace rtpool::lint
