// Random nested-fork-join DAG generation (Section 5).
//
// Follows the recursive-expansion technique of Melani et al. [14]: a block
// is either a terminal node or a parallel composition of branches, each a
// series of sub-blocks one nesting level deeper. The paper's extension is
// the *typing* step: every generated fork-join sub-graph becomes a blocking
// region (BF/BC.../BJ) with probability p_BF = d/(d+1), where d is its
// nesting depth (deeper sub-graphs are more likely blocking), unless it is
// already inside a blocking region (regions cannot nest). Source and sink
// nodes are always NB.
#pragma once

#include <cstddef>
#include <optional>

#include "model/dag_task.h"
#include "util/rng.h"

namespace rtpool::gen {

/// Shape of the per-node WCET draw. kUniform is the paper's setup and keeps
/// the exact historical draw sequence (one uniform per node); the others
/// exist for the corpus's heterogeneous scenario space — workloads whose
/// critical paths are dominated by a few heavy nodes stress the analyses
/// very differently from flat uniform ones.
enum class WcetDist : unsigned char {
  kUniform,      ///< U[wcet_min, wcet_max] (paper; default).
  kBimodal,      ///< 80% light (bottom fifth), 20% heavy (top fifth).
  kExponential,  ///< min + Exp(mean = span/4), truncated at wcet_max.
  kHeavyTail,    ///< Bounded Pareto (alpha = 1.1, 64x dynamic range).
};

/// One WCET draw from [wcet_min, wcet_max] under `dist` (exposed for tests
/// and custom generators; consumes 1 draw for kUniform/kExponential/
/// kHeavyTail and 2 for kBimodal).
double draw_wcet(WcetDist dist, double wcet_min, double wcet_max,
                 util::Rng& rng);

struct NfjParams {
  /// Maximum fork-join nesting depth (the paper's d = 2).
  int max_depth = 2;
  /// Parallel branches per fork-join, uniform in [min_branches, max_branches].
  int min_branches = 2;
  int max_branches = 4;
  /// Blocks composed in series within one branch, uniform in [1, max_series].
  int max_series = 2;
  /// Node WCETs, drawn from [wcet_min, wcet_max] (paper: [0, 100]; the lower
  /// end is kept strictly positive so every node carries real work).
  double wcet_min = 1.0;
  double wcet_max = 100.0;
  /// Distribution of the WCET draw over [wcet_min, wcet_max]. kUniform is
  /// bit-compatible with the historical generator (same stream, same sets).
  WcetDist wcet_dist = WcetDist::kUniform;
  /// When false, no sub-graph is typed blocking (plain DAG tasks — used for
  /// baselines, for ablations, and as the skeleton of targeted typing).
  bool allow_blocking = true;
  /// When > 0, the outermost fork-join uses exactly this many branches
  /// (used to guarantee enough mutually-concurrent sub-graphs for targeted
  /// typing); 0 = draw from [min_branches, max_branches] as usual.
  int force_outer_branches = 0;
};

/// `ForkJoinSpan::parent` of the outermost span.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// One generated fork-join sub-graph: delimiter pair, nesting depth, and
/// where it sits in the nesting tree.
struct ForkJoinSpan {
  model::NodeId fork;
  model::NodeId join;
  int depth;  ///< 1 = outermost.
  /// Index in `GeneratedGraph::fork_joins` of the innermost span enclosing
  /// this one (kNoSpan for the outermost).
  std::size_t parent;
  /// Which of `parent`'s branches (0-based, in construction order) holds
  /// this span.
  std::size_t branch;
};

/// Raw generation result before period assignment: graph + node attributes.
///
/// The generator numbers nodes depth-first: a fork-join sub-graph creates
/// its fork, then its branches, then its join. So every span's interior
/// (succ(fork) ∩ pred(join)) is exactly the ids strictly between its fork
/// and its join, and one span contains another iff its id interval does.
/// Two spans are concurrent (neither fork reaches the other) iff neither
/// contains the other and they lie in different branches of their lowest
/// common enclosing span, which the `parent`/`branch` record answers without
/// a transitive closure. The selection functions below rely on both facts,
/// so they accept only graphs made by generate_nfj_graph.
struct GeneratedGraph {
  graph::Dag dag;
  std::vector<model::Node> nodes;
  /// Every fork-join sub-graph (innermost-first construction order); used
  /// by targeted typing.
  std::vector<ForkJoinSpan> fork_joins;

  /// Total WCET (the task's C_i = vol).
  util::Time volume() const;
};

/// Generate one NFJ graph with types. The graph always has a single NB
/// source and a single NB sink and satisfies all model restrictions.
GeneratedGraph generate_nfj_graph(const NfjParams& params, util::Rng& rng);

/// Retype `graph` so that exactly the fork-join sub-graphs in `selection`
/// become blocking regions (BF/BC.../BJ); all other nodes become NB.
/// The selected spans must be pairwise precedence-unordered (concurrent) —
/// then every member of a selected region is affected by exactly
/// |selection| forks and b̄(τ) = |selection| by construction. Retyping
/// never touches the dag. Throws std::invalid_argument if a selected span
/// is out of range.
void apply_blocking_selection(GeneratedGraph& graph,
                              const std::vector<std::size_t>& selection);

/// True if fork-join spans `a` and `b` of `graph` (indices into
/// `graph.fork_joins`) are concurrent: their forks are mutually unordered.
/// Read off the nesting record in O(depth), without a closure. Throws
/// std::invalid_argument if an index is out of range.
bool fork_joins_concurrent(const GeneratedGraph& graph, std::size_t a,
                           std::size_t b);

/// Greedily pick `k` pairwise-concurrent fork-join spans of `graph`
/// (shuffled order). Returns nullopt if the greedy pass cannot find k.
std::optional<std::vector<std::size_t>> pick_concurrent_fork_joins(
    const GeneratedGraph& graph, std::size_t k, util::Rng& rng);

}  // namespace rtpool::gen
