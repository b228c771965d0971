#include "gen/nfj_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtpool::gen {

double draw_wcet(WcetDist dist, double wcet_min, double wcet_max,
                 util::Rng& rng) {
  const double span = wcet_max - wcet_min;
  switch (dist) {
    case WcetDist::kUniform:
      // One draw, identical to the historical generator: every pre-existing
      // seed reproduces the same task set bit for bit.
      return rng.uniform(wcet_min, wcet_max);
    case WcetDist::kBimodal: {
      // Many light nodes, a few heavy ones: 80% in the bottom fifth of the
      // range, 20% in the top fifth. Always two draws so the stream layout
      // does not depend on which mode fires.
      const bool heavy = rng.bernoulli(0.2);
      const double u = rng.uniform(0.0, 1.0);
      return heavy ? wcet_max - 0.2 * span * u : wcet_min + 0.2 * span * u;
    }
    case WcetDist::kExponential: {
      // min + Exp(mean = span/4), truncated at wcet_max. uniform() is
      // [0, 1), so log(1 - u) is finite.
      const double u = rng.uniform(0.0, 1.0);
      const double x = -(span / 4.0) * std::log1p(-u);
      return wcet_min + std::min(x, span);
    }
    case WcetDist::kHeavyTail: {
      // Bounded Pareto with alpha = 1.1 over [1, H], mapped onto the WCET
      // range: mass concentrates near wcet_min with a genuine polynomial
      // tail toward wcet_max.
      constexpr double kAlpha = 1.1;
      constexpr double kH = 64.0;
      const double u = rng.uniform(0.0, 1.0);
      const double x =
          std::pow(1.0 - u * (1.0 - std::pow(kH, -kAlpha)), -1.0 / kAlpha);
      return wcet_min + span * (x - 1.0) / (kH - 1.0);
    }
  }
  return rng.uniform(wcet_min, wcet_max);
}

namespace {

using model::Node;
using model::NodeId;
using model::NodeType;

/// Probability that a block expands into a parallel sub-graph instead of a
/// terminal node (before the depth limit applies).
constexpr double kParallelProb = 0.8;

/// Recursive builder for one task graph.
class GraphBuilder {
 public:
  GraphBuilder(const NfjParams& params, util::Rng& rng) : params_(params), rng_(rng) {}

  GeneratedGraph run() {
    GeneratedGraph out;
    dag_ = &out.dag;
    nodes_ = &out.nodes;
    spans_ = &out.fork_joins;

    // Growth hint: typical expansions stay well under this; worst cases
    // just fall back to vector growth.
    out.dag.reserve(64);
    out.nodes.reserve(64);
    out.fork_joins.reserve(16);
    chains_.reserve(32);

    const NodeId src = terminal(NodeType::NB);
    // Force the outermost expansion so tasks are actually parallel.
    const auto [entry, exit] = block(/*depth=*/1, /*branch=*/0,
                                     /*inside_blocking=*/false,
                                     /*force_parallel=*/true);
    const NodeId snk = terminal(NodeType::NB);
    // Every edge the builder adds has a freshly created endpoint, so the
    // checked insert's duplicate scan can never fire — skip it.
    out.dag.add_edge_unchecked(src, entry);
    out.dag.add_edge_unchecked(exit, snk);
    return out;
  }

 private:
  /// A block has a single entry and a single exit node.
  struct Span {
    NodeId entry;
    NodeId exit;
  };

  NodeId terminal(NodeType type) {
    const NodeId id = dag_->add_node();
    nodes_->push_back(Node{draw_wcet(params_.wcet_dist, params_.wcet_min,
                                     params_.wcet_max, rng_),
                           type});
    return id;
  }

  /// `branch` is the enclosing span's branch this block lies in.
  Span block(int depth, std::size_t branch, bool inside_blocking,
             bool force_parallel) {
    const bool expand = depth <= params_.max_depth &&
                        (force_parallel || rng_.bernoulli(kParallelProb));
    if (!expand) {
      const NodeId v = terminal(inside_blocking ? NodeType::BC : NodeType::NB);
      return {v, v};
    }

    // Decide whether this fork-join sub-graph is a blocking region:
    // p_BF = d/(d+1), only outside existing blocking regions (no nesting).
    const double p_bf =
        static_cast<double>(depth) / static_cast<double>(depth + 1);
    const bool blocking =
        params_.allow_blocking && !inside_blocking && rng_.bernoulli(p_bf);

    const NodeType delim_fork = blocking ? NodeType::BF
                               : inside_blocking ? NodeType::BC
                                                 : NodeType::NB;
    const NodeType delim_join = blocking ? NodeType::BJ
                               : inside_blocking ? NodeType::BC
                                                 : NodeType::NB;
    const NodeId fork = terminal(delim_fork);
    const std::size_t first_inner = spans_->size();
    const bool inner_blocking = inside_blocking || blocking;

    const bool outermost = depth == 1;
    const auto branches =
        (outermost && params_.force_outer_branches > 0)
            ? params_.force_outer_branches
            : static_cast<int>(
                  rng_.uniform_int(params_.min_branches, params_.max_branches));
    // This block's branch chains sit on chains_ above `first_chain`; the
    // nested calls below push and pop their own above them.
    const std::size_t first_chain = chains_.size();
    for (std::size_t b = 0; b < static_cast<std::size_t>(branches); ++b) {
      const auto series = static_cast<int>(rng_.uniform_int(1, params_.max_series));
      Span chain = block(depth + 1, b, inner_blocking, false);
      for (int s = 1; s < series; ++s) {
        const Span next = block(depth + 1, b, inner_blocking, false);
        dag_->add_edge_unchecked(chain.exit, next.entry);
        chain.exit = next.exit;
      }
      chains_.push_back(chain);
    }

    const NodeId join = terminal(delim_join);
    for (std::size_t c = first_chain; c < chains_.size(); ++c) {
      dag_->add_edge_unchecked(fork, chains_[c].entry);
      dag_->add_edge_unchecked(chains_[c].exit, join);
    }
    chains_.resize(first_chain);
    // Spans built since the fork lie inside this one; those still without a
    // parent are its direct children.
    const std::size_t self = spans_->size();
    for (std::size_t i = first_inner; i < self; ++i)
      if ((*spans_)[i].parent == kNoSpan) (*spans_)[i].parent = self;
    spans_->push_back(ForkJoinSpan{fork, join, depth, kNoSpan, branch});
    return {fork, join};
  }

  const NfjParams& params_;
  util::Rng& rng_;
  graph::Dag* dag_ = nullptr;
  std::vector<Node>* nodes_ = nullptr;
  std::vector<ForkJoinSpan>* spans_ = nullptr;
  std::vector<Span> chains_;  ///< Branch chains of the blocks being built.
};

void validate_params(const NfjParams& p) {
  if (p.max_depth < 1) throw std::invalid_argument("NfjParams: max_depth must be >= 1");
  if (p.min_branches < 2 || p.max_branches < p.min_branches)
    throw std::invalid_argument("NfjParams: need 2 <= min_branches <= max_branches");
  if (p.max_series < 1) throw std::invalid_argument("NfjParams: max_series must be >= 1");
  if (!(p.wcet_min >= 0.0) || !(p.wcet_max >= p.wcet_min) || !(p.wcet_max > 0.0))
    throw std::invalid_argument("NfjParams: bad WCET range");
  if (p.force_outer_branches != 0 && p.force_outer_branches < 2)
    throw std::invalid_argument("NfjParams: force_outer_branches must be 0 or >= 2");
}

}  // namespace

util::Time GeneratedGraph::volume() const {
  util::Time v = 0.0;
  for (const model::Node& n : nodes) v += n.wcet;
  return v;
}

GeneratedGraph generate_nfj_graph(const NfjParams& params, util::Rng& rng) {
  validate_params(params);
  return GraphBuilder(params, rng).run();
}

void apply_blocking_selection(GeneratedGraph& g,
                              const std::vector<std::size_t>& selection) {
  // Reset all types, then mark each selected span and its interior.
  for (model::Node& n : g.nodes) n.type = NodeType::NB;

  for (std::size_t idx : selection) {
    if (idx >= g.fork_joins.size())
      throw std::invalid_argument("apply_blocking_selection: span out of range");
    const ForkJoinSpan& span = g.fork_joins[idx];
    g.nodes[span.fork].type = NodeType::BF;
    g.nodes[span.join].type = NodeType::BJ;
    // Interior = succ(fork) ∩ pred(join) = the ids strictly between them.
    for (NodeId v = span.fork + 1; v < span.join; ++v) g.nodes[v].type = NodeType::BC;
  }
}

bool fork_joins_concurrent(const GeneratedGraph& g, std::size_t a,
                           std::size_t b) {
  // Lift both spans to the children of their lowest common enclosing span
  // (a parent sits exactly one level above its child), then compare the
  // branches those children hang off.
  const std::vector<ForkJoinSpan>& spans = g.fork_joins;
  if (a >= spans.size() || b >= spans.size())
    throw std::invalid_argument("fork_joins_concurrent: span out of range");
  while (spans[a].depth > spans[b].depth) a = spans[a].parent;
  while (spans[b].depth > spans[a].depth) b = spans[b].parent;
  if (a == b) return false;  // the same span, or one contains the other
  while (spans[a].parent != spans[b].parent) {
    a = spans[a].parent;
    b = spans[b].parent;
  }
  return spans[a].parent != kNoSpan && spans[a].branch != spans[b].branch;
}

std::optional<std::vector<std::size_t>> pick_concurrent_fork_joins(
    const GeneratedGraph& g, std::size_t k, util::Rng& rng) {
  if (k == 0) return std::vector<std::size_t>{};
  if (g.fork_joins.size() < k) return std::nullopt;

  std::vector<std::size_t> order(g.fork_joins.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);

  std::vector<std::size_t> chosen;
  for (std::size_t idx : order) {
    const bool ok = std::all_of(chosen.begin(), chosen.end(), [&](std::size_t c) {
      return fork_joins_concurrent(g, idx, c);
    });
    if (ok) {
      chosen.push_back(idx);
      if (chosen.size() == k) return chosen;
    }
  }
  return std::nullopt;
}

}  // namespace rtpool::gen
