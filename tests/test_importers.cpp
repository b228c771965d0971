// Unit tests for the importer-backed constructors (gen/importers.h), the
// heterogeneous WCET distributions (gen/nfj_generator.h) and the corpus
// scenario space (gen/scenario_space.h).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/concurrency.h"
#include "gen/importers.h"
#include "gen/nfj_generator.h"
#include "gen/scenario_space.h"
#include "gen/topologies.h"
#include "model/io.h"
#include "util/rng.h"

namespace rtpool::gen {
namespace {

// ---------------------------------------------------------------------------
// Importers
// ---------------------------------------------------------------------------

TEST(ImportDnnTest, DefaultsReproduceTopologyBuild) {
  // The importer's default spec must be bit-identical to the historical
  // examples/dnn_inference.cpp construction (same stream, same graph).
  util::Rng a(2019);
  const importers::DnnInferenceSpec spec;
  const model::DagTask imported = importers::import_dnn_inference(spec, a);

  util::Rng b(2019);
  TopologyOptions options;
  options.blocking = true;
  options.period = 400.0;
  options.wcet_min = 0.3;
  options.wcet_max = 2.0;
  const model::DagTask direct = make_dnn_task("inception_like", 6, 3, 8,
                                              options, b);
  EXPECT_EQ(imported.node_count(), direct.node_count());
  EXPECT_DOUBLE_EQ(imported.volume(), direct.volume());
  EXPECT_DOUBLE_EQ(imported.critical_path_length(),
                   direct.critical_path_length());
  // The caller's stream advanced identically.
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(ImportDnnTest, BbarEqualsOpsPerLayer) {
  util::Rng rng(5);
  importers::DnnInferenceSpec spec;
  spec.layers = 4;
  spec.ops_per_layer = 5;
  spec.tiles = 3;
  const model::DagTask task = importers::import_dnn_inference(spec, rng);
  // Layer barriers serialize layers; operators within a layer are the only
  // concurrent blocking regions.
  EXPECT_EQ(analysis::max_affecting_forks(task), 5u);
}

TEST(ImportDnnTest, UtilizationTargeting) {
  util::Rng a(11), b(11);
  importers::DnnInferenceSpec plain;
  const model::DagTask reference = importers::import_dnn_inference(plain, a);

  importers::DnnInferenceSpec targeted;
  targeted.utilization = 0.37;
  const model::DagTask task = importers::import_dnn_inference(targeted, b);
  EXPECT_NEAR(task.utilization(), 0.37, 1e-12);
  // Same stream state => identical structure and draws, only the period
  // differs.
  EXPECT_EQ(task.node_count(), reference.node_count());
  EXPECT_DOUBLE_EQ(task.volume(), reference.volume());
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(ImportEigenTest, BbarEqualsRows) {
  util::Rng rng(5);
  importers::EigenContractionSpec spec;
  spec.rows = 4;
  spec.tiles = 6;
  const model::DagTask task = importers::import_eigen_contraction(spec, rng);
  // All rows hang off one source: mutually concurrent blocking regions.
  EXPECT_EQ(analysis::max_affecting_forks(task), 4u);
  EXPECT_EQ(task.blocking_fork_count(), 4u);
  // source + sink + rows * (fork + join + tiles)
  EXPECT_EQ(task.node_count(), 2u + 4u * (2u + 6u));
}

TEST(ImportEigenTest, UtilizationTargeting) {
  util::Rng rng(3);
  importers::EigenContractionSpec spec;
  spec.utilization = 0.5;
  const model::DagTask task = importers::import_eigen_contraction(spec, rng);
  EXPECT_NEAR(task.utilization(), 0.5, 1e-12);
}

TEST(ImportTest, InvalidSpecsThrow) {
  util::Rng rng(1);
  importers::DnnInferenceSpec dnn;
  dnn.layers = 0;
  EXPECT_THROW(importers::import_dnn_inference(dnn, rng),
               std::invalid_argument);
  importers::EigenContractionSpec eigen;
  eigen.wcet_min = -1.0;
  EXPECT_THROW(importers::import_eigen_contraction(eigen, rng),
               std::invalid_argument);
}

TEST(ImportTest, TaskSetRoundTripIsCanonical) {
  util::Rng rng(77);
  model::TaskSet ts(6);
  importers::DnnInferenceSpec dnn;
  dnn.layers = 2;
  dnn.ops_per_layer = 2;
  dnn.tiles = 3;
  ts.add(importers::import_dnn_inference(dnn, rng));
  importers::EigenContractionSpec eigen;
  eigen.rows = 2;
  eigen.tiles = 4;
  ts.add(importers::import_eigen_contraction(eigen, rng));

  std::ostringstream first;
  model::write_task_set(first, ts);
  std::istringstream in(first.str());
  const model::TaskSet back = model::read_task_set(in);
  ASSERT_EQ(back.size(), ts.size());
  EXPECT_DOUBLE_EQ(back.task(0).volume(), ts.task(0).volume());
  EXPECT_DOUBLE_EQ(back.task(1).period(), ts.task(1).period());
  // Canonical: re-serialization is byte-identical (the witness-bundle
  // embedding contract).
  std::ostringstream second;
  model::write_task_set(second, back);
  EXPECT_EQ(first.str(), second.str());
}

// ---------------------------------------------------------------------------
// WCET distributions
// ---------------------------------------------------------------------------

TEST(WcetDistTest, UniformIsBitIdenticalToHistoricalStream) {
  // kUniform must reproduce the pre-WcetDist generator exactly, so every
  // recorded seed stays valid.
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(draw_wcet(WcetDist::kUniform, 2.0, 9.0, a),
                     b.uniform(2.0, 9.0));
}

TEST(WcetDistTest, AllDistributionsRespectBounds) {
  util::Rng rng(99);
  for (const WcetDist dist : {WcetDist::kUniform, WcetDist::kBimodal,
                              WcetDist::kExponential, WcetDist::kHeavyTail}) {
    double lo = 1e300, hi = -1e300;
    for (int i = 0; i < 2000; ++i) {
      const double w = draw_wcet(dist, 0.5, 8.0, rng);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    EXPECT_GE(lo, 0.5) << "dist " << static_cast<int>(dist);
    EXPECT_LE(hi, 8.0) << "dist " << static_cast<int>(dist);
  }
}

TEST(WcetDistTest, BimodalIsActuallyBimodal) {
  util::Rng rng(7);
  int heavy = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i)
    if (draw_wcet(WcetDist::kBimodal, 0.0, 10.0, rng) > 5.0) ++heavy;
  // ~20% of draws land in the top fifth; the rest in the bottom fifth.
  EXPECT_GT(heavy, n / 10);
  EXPECT_LT(heavy, n / 3);
}

// ---------------------------------------------------------------------------
// ScenarioSpace
// ---------------------------------------------------------------------------

TEST(ScenarioSpaceTest, PickIsRoundRobinByAbsoluteSeed) {
  const ScenarioSpace space = ScenarioSpace::corpus_default();
  ASSERT_GT(space.size(), 0u);
  for (std::uint64_t seed = 0; seed < 3 * space.size(); ++seed)
    EXPECT_EQ(space.pick_index(seed), seed % space.size());
  EXPECT_THROW(ScenarioSpace().pick(0), std::logic_error);
}

TEST(ScenarioSpaceTest, DefaultMixGeneratesValidSets) {
  const ScenarioSpace space = ScenarioSpace::corpus_default();
  util::Rng rng(2026);
  for (std::size_t i = 0; i < space.size(); ++i) {
    util::Rng srng = rng.fork_with(i);
    const model::TaskSet ts = space.scenario(i).make(8, srng);
    EXPECT_GT(ts.size(), 0u) << space.scenario(i).name;
    EXPECT_EQ(ts.core_count(), 8u) << space.scenario(i).name;
    for (std::size_t t = 0; t < ts.size(); ++t)
      EXPECT_GT(ts.task(t).period(), 0.0) << space.scenario(i).name;
  }
}

TEST(ScenarioSpaceTest, ReproducibleForSameSeed) {
  const ScenarioSpace space = ScenarioSpace::corpus_default();
  const util::Rng root(1);
  for (std::size_t i = 0; i < space.size(); ++i) {
    util::Rng a = root.fork_with(1000 + i);
    util::Rng b = root.fork_with(1000 + i);
    const model::TaskSet first = space.scenario(i).make(8, a);
    const model::TaskSet second = space.scenario(i).make(8, b);
    std::ostringstream sa, sb;
    model::write_task_set(sa, first);
    model::write_task_set(sb, second);
    EXPECT_EQ(sa.str(), sb.str()) << space.scenario(i).name;
  }
}

TEST(ScenarioSpaceTest, FilterAndFingerprint) {
  ScenarioSpace space = ScenarioSpace::corpus_default();
  const std::string full = space.fingerprint();
  const std::size_t kept = space.filter("import");
  EXPECT_GT(kept, 0u);
  EXPECT_EQ(kept, space.size());
  EXPECT_NE(space.fingerprint(), full);
  for (std::size_t i = 0; i < space.size(); ++i)
    EXPECT_NE(space.scenario(i).name.find("import"), std::string::npos);
}

}  // namespace
}  // namespace rtpool::gen
