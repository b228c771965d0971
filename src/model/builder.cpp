#include "model/builder.h"

namespace rtpool::model {

NodeId DagTaskBuilder::add_node(util::Time wcet, NodeType type) {
  const NodeId id = dag_.add_node();
  nodes_.push_back(Node{wcet, type});
  return id;
}

DagTaskBuilder& DagTaskBuilder::add_edge(NodeId from, NodeId to) {
  dag_.add_edge(from, to);
  return *this;
}

DagTaskBuilder::ForkJoin DagTaskBuilder::add_blocking_fork_join(
    util::Time fork_wcet, util::Time join_wcet,
    const std::vector<util::Time>& child_wcets) {
  if (child_wcets.empty())
    throw ModelError(name_ + ": blocking fork-join requires at least one child");
  ForkJoin fj;
  fj.fork = add_node(fork_wcet, NodeType::BF);
  fj.join = add_node(join_wcet, NodeType::BJ);
  for (util::Time c : child_wcets) {
    const NodeId child = add_node(c, NodeType::BC);
    add_edge(fj.fork, child);
    add_edge(child, fj.join);
    fj.children.push_back(child);
  }
  return fj;
}

DagTaskBuilder::ForkJoin DagTaskBuilder::add_fork_join(
    util::Time fork_wcet, util::Time join_wcet,
    const std::vector<util::Time>& child_wcets) {
  if (child_wcets.empty())
    throw ModelError(name_ + ": fork-join requires at least one child");
  ForkJoin fj;
  fj.fork = add_node(fork_wcet, NodeType::NB);
  fj.join = add_node(join_wcet, NodeType::NB);
  for (util::Time c : child_wcets) {
    const NodeId child = add_node(c, NodeType::NB);
    add_edge(fj.fork, child);
    add_edge(child, fj.join);
    fj.children.push_back(child);
  }
  return fj;
}

DagTaskBuilder& DagTaskBuilder::period(util::Time value) {
  period_ = value;
  return *this;
}

DagTaskBuilder& DagTaskBuilder::deadline(util::Time value) {
  deadline_ = value;
  return *this;
}

DagTaskBuilder& DagTaskBuilder::priority(int value) {
  priority_ = value;
  return *this;
}

DagTask DagTaskBuilder::build() const {
  graph::Dag dag = dag_;
  std::vector<Node> nodes = nodes_;

  const auto sources = dag.sources();
  if (sources.size() > 1) {
    const NodeId dummy = dag.add_node();
    nodes.push_back(Node{0.0, NodeType::NB});
    for (NodeId s : sources) dag.add_edge(dummy, s);
  }
  const auto sinks = dag.sinks();
  // Note: the dummy source (out-edges only) can never appear in sinks.
  if (sinks.size() > 1) {
    const NodeId dummy = dag.add_node();
    nodes.push_back(Node{0.0, NodeType::NB});
    for (NodeId s : sinks) dag.add_edge(s, dummy);
  }

  const util::Time deadline = deadline_ < 0.0 ? period_ : deadline_;
  return DagTask(name_, std::move(dag), std::move(nodes), period_, deadline,
                 priority_);
}

DagTask make_fork_join_task(const std::string& name, std::size_t parallel,
                            util::Time node_wcet, util::Time period,
                            bool blocking) {
  DagTaskBuilder b(name);
  const std::vector<util::Time> children(parallel, node_wcet);
  if (blocking) {
    b.add_blocking_fork_join(node_wcet, node_wcet, children);
  } else {
    b.add_fork_join(node_wcet, node_wcet, children);
  }
  b.period(period);
  return b.build();
}

}  // namespace rtpool::model
