// Deadlock-freedom conditions of Section 3.
//
// Lemma 1: if the available concurrency l(t, τ) ever reaches 0, τ deadlocks.
// Lemma 2: under global work-conserving intra-pool scheduling the condition
//          is also necessary, so l(t, τ) > 0 for all t is exact.
// Lemma 3: under partitioned intra-pool scheduling, a node may additionally
//          starve behind a suspended thread; Eq. (3) — no BC node shares a
//          thread with a BF in C(v) ∪ {F(v)} — together with l(t, τ) > 0
//          rules deadlocks out.
//
// The universally quantified l(t, τ) > 0 is checked through the
// time-independent lower bound l̄(τ) of Section 3.1 (see concurrency.h),
// which makes all checks sufficient-only (conservative), exactly as the
// paper applies them.
//
// Each lemma is exposed twice: a *witness-returning* form that explains the
// hazard (consumed by the lint rules of src/lint/ and by diagnostics), and
// the original boolean form, now a thin wrapper over the witness form.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/partition.h"
#include "model/dag_task.h"

namespace rtpool::analysis {

/// Lemma 1 witness: a pivot node v* and the fork set X(v*) with
/// |X(v*)| = b̄(τ) ≥ m. While v* is pending, every fork in `forks` may be
/// simultaneously suspended, exhausting all `pool_size` threads — v* then
/// never obtains a thread and the barriers never open (a blocking chain).
struct BlockingChainWitness {
  model::NodeId pivot;                ///< Node v* achieving b̄(τ).
  std::vector<model::NodeId> forks;   ///< X(v*); |forks| = b̄(τ).
  std::size_t pool_size;              ///< The pool size m the chain exhausts.
};

/// Returns the witness when the Lemma 1 sufficient condition FAILS through
/// the Section 3.1 bound (b̄(τ) ≥ m), nullopt when l̄(τ) > 0 guarantees
/// deadlock freedom.
std::optional<BlockingChainWitness> find_lemma1_witness(const model::DagTask& task,
                                                        std::size_t pool_size);

/// One-line human rendering of the blocking chain ("v* ← {f1, f2} ...").
std::string describe(const BlockingChainWitness& witness, const std::string& task_name);

/// Lemma 2 witness: a wait-for cycle on the global wait-for-concurrency
/// (WC) graph, whose vertices are the BF nodes and whose edges connect
/// precedence-unordered (concurrent) forks. `forks` holds m pairwise
/// concurrent forks: each can be suspended while waiting for a thread held
/// by the next (cyclically) — under global work-conserving scheduling this
/// suspension pattern is reachable, so the deadlock can actually manifest
/// (the necessary direction of Lemma 2).
struct WaitForCycle {
  std::vector<model::NodeId> forks;   ///< m pairwise-concurrent BF nodes.
  std::size_t pool_size;
};

/// Returns a wait-for cycle when a set of ≥ m pairwise-concurrent forks
/// exists (maximum antichain of the BF poset reaches m), nullopt otherwise.
/// Never fires when find_lemma1_witness() does not (antichain ≤ b̄).
std::optional<WaitForCycle> find_wait_for_cycle(const model::DagTask& task,
                                                std::size_t pool_size);

/// "f1 → f2 → ... → f1" rendering of the cycle.
std::string describe(const WaitForCycle& cycle, const std::string& task_name);

/// Violation of Eq. (3), if any: a BC node co-located with a dangerous BF.
struct Eq3Violation {
  model::NodeId bc_node;
  model::NodeId fork;
  ThreadId thread;
};

/// Check Eq. (3) of Lemma 3 for one task under a node-to-thread assignment.
/// Returns the first violation found, or nullopt if Eq. (3) holds.
std::optional<Eq3Violation> find_eq3_violation(const model::DagTask& task,
                                               const NodeAssignment& assignment);

/// All Eq. (3) violations (one per offending BC node, ascending by id);
/// empty iff Eq. (3) holds. Used by the lint pass to report every
/// misplacement at once instead of the first.
std::vector<Eq3Violation> find_eq3_violations(const model::DagTask& task,
                                              const NodeAssignment& assignment);

/// "BC node v shares thread t with dangerous BF f" rendering.
std::string describe(const Eq3Violation& violation, const std::string& task_name);

/// Verdict of a deadlock-freedom check.
struct DeadlockCheck {
  bool deadlock_free;        ///< True if the sufficient condition holds.
  long concurrency_bound;    ///< l̄(τ) = m − b̄(τ).
  std::size_t max_forks;     ///< b̄(τ).
  std::string witness;       ///< Human-readable reason when not guaranteed.
};

/// Global scheduling: deadlock-free iff l̄(τ) > 0 (Lemmas 1+2 through the
/// Section 3.1 lower bound).
DeadlockCheck check_deadlock_free_global(const model::DagTask& task,
                                         std::size_t pool_size);

/// Partitioned scheduling: Lemma 3 = (l̄(τ) > 0) ∧ Eq. (3).
DeadlockCheck check_deadlock_free_partitioned(const model::DagTask& task,
                                              std::size_t pool_size,
                                              const NodeAssignment& assignment);

/// Boolean-only fast path of `check_deadlock_free_partitioned`: identical
/// verdict, no witness structures or description strings. The verdict
/// reduces to the cached b̄(τ) (Lemma 1's witness exists iff
/// b̄(τ) >= pool size) plus an early-exit Eq. (3) scan over
/// (BC node, region) pairs — the per-attempt deadlock gate of the
/// partitioned analysis reads only the boolean, thousands of times per
/// experiment point.
bool is_deadlock_free_partitioned(const model::DagTask& task,
                                  std::size_t pool_size,
                                  const NodeAssignment& assignment);

/// Whole task set, partitioned scheduling.
bool task_set_deadlock_free_partitioned(const model::TaskSet& ts,
                                        const TaskSetPartition& partition);

}  // namespace rtpool::analysis
