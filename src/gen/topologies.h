// Structured DAG topology from real parallel software: the layered
// inference graph TensorFlow/Eigen-style systems run. Its data-parallel
// sections are either *blocking* regions (BF/BC/BJ — Listing 1, the
// thread-pool + condition-variable implementation) or plain NB nodes
// (Listing 2).
//
// The constructor produces model-valid tasks (single source/sink, region
// restrictions hold by construction) with WCETs drawn from an Rng.
#pragma once

#include <cstddef>
#include <string>

#include "model/dag_task.h"
#include "util/rng.h"

namespace rtpool::gen {

/// Knobs of the topology builder.
struct TopologyOptions {
  bool blocking = true;      ///< Data-parallel sections use BF/BC/BJ.
  util::Time period = 0.0;   ///< Task period (= deadline); must be > 0.
  double wcet_min = 1.0;     ///< Kernel WCETs are drawn uniformly from
  double wcet_max = 10.0;    ///< [wcet_min, wcet_max].
};

/// Layered DNN inference graph: `layers` layers, each with `ops_per_layer`
/// operators running between two layer barriers; every operator is a
/// parallel-for over `tiles` tiles. b̄ = ops_per_layer when blocking (one
/// concurrent fork per operator of a layer).
model::DagTask make_dnn_task(const std::string& name, int layers,
                             int ops_per_layer, int tiles,
                             const TopologyOptions& options, util::Rng& rng);

}  // namespace rtpool::gen
