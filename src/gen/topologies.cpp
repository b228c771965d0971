#include "gen/topologies.h"

#include <stdexcept>
#include <vector>

#include "model/builder.h"

namespace rtpool::gen {

namespace {

using model::DagTaskBuilder;
using model::NodeId;
using model::NodeType;

void validate(const TopologyOptions& options) {
  if (!(options.period > 0.0))
    throw std::invalid_argument("topology: period must be > 0");
  if (!(options.wcet_min >= 0.0) || !(options.wcet_max >= options.wcet_min))
    throw std::invalid_argument("topology: bad WCET range");
}

double draw(const TopologyOptions& options, util::Rng& rng) {
  return rng.uniform(options.wcet_min, options.wcet_max);
}

/// A parallel-for section between `entry` and `exit` nodes: blocking
/// (BF -> width x BC -> BJ) or plain NB fork-join.
void add_parallel_for(DagTaskBuilder& b, NodeId entry, NodeId exit, int width,
                      const TopologyOptions& options, util::Rng& rng) {
  std::vector<util::Time> kernels;
  kernels.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) kernels.push_back(draw(options, rng));
  const auto fj = options.blocking
                      ? b.add_blocking_fork_join(draw(options, rng),
                                                 draw(options, rng), kernels)
                      : b.add_fork_join(draw(options, rng), draw(options, rng),
                                        kernels);
  b.add_edge(entry, fj.fork);
  b.add_edge(fj.join, exit);
}

}  // namespace

model::DagTask make_dnn_task(const std::string& name, int layers,
                             int ops_per_layer, int tiles,
                             const TopologyOptions& options, util::Rng& rng) {
  validate(options);
  if (layers < 1 || ops_per_layer < 1 || tiles < 1)
    throw std::invalid_argument("make_dnn_task: all dimensions must be >= 1");

  DagTaskBuilder b(name);
  NodeId barrier = b.add_node(draw(options, rng));  // input pre-processing
  for (int layer = 0; layer < layers; ++layer) {
    const NodeId next = b.add_node(draw(options, rng));  // concat / copy
    for (int op = 0; op < ops_per_layer; ++op)
      add_parallel_for(b, barrier, next, tiles, options, rng);
    barrier = next;
  }
  b.period(options.period);
  return b.build();
}

}  // namespace rtpool::gen
