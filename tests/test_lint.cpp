// rtpool-lint rule pipeline: one clean (positive) and one violating
// (negative) fixture per rule family, renderer round-trips, and the
// agreement of lint and the model on single-edit mutations of the shipped
// models.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "lint/render.h"
#include "lint/rules.h"
#include "util/json.h"

namespace {

using namespace rtpool;
using lint::LintReport;
using lint::PartitionSource;
using lint::Severity;
using model::NodeType;
using model::RawEdge;
using model::RawTask;
using model::RawTaskSet;

model::Node node(NodeType type, double wcet = 1.0) {
  model::Node n;
  n.type = type;
  n.wcet = wcet;
  return n;
}

/// NB chain 0 -> 1 -> ... -> n-1.
RawTask chain_task(const std::string& name, std::size_t n, int priority = 0) {
  RawTask t;
  t.name = name;
  t.period = 100.0;
  t.deadline = 100.0;
  t.priority = priority;
  for (std::size_t v = 0; v < n; ++v) t.nodes.push_back(node(NodeType::NB));
  for (std::size_t v = 0; v + 1 < n; ++v) t.edges.push_back(RawEdge{v, v + 1});
  return t;
}

/// NB source -> BF -> {BC x children} -> BJ -> NB sink (one blocking region).
RawTask region_task(const std::string& name, std::size_t children,
                    int priority = 0) {
  RawTask t;
  t.name = name;
  t.period = 100.0;
  t.deadline = 100.0;
  t.priority = priority;
  t.nodes.push_back(node(NodeType::NB));  // 0: source
  t.nodes.push_back(node(NodeType::BF));  // 1: fork
  t.nodes.push_back(node(NodeType::BJ));  // 2: join
  t.edges.push_back(RawEdge{0, 1});
  for (std::size_t c = 0; c < children; ++c) {
    const std::size_t bc = t.nodes.size();
    t.nodes.push_back(node(NodeType::BC));
    t.edges.push_back(RawEdge{1, bc});
    t.edges.push_back(RawEdge{bc, 2});
  }
  const std::size_t sink = t.nodes.size();
  t.nodes.push_back(node(NodeType::NB));
  t.edges.push_back(RawEdge{2, sink});
  return t;
}

RawTaskSet single(RawTask task, std::size_t cores = 4) {
  RawTaskSet raw;
  raw.cores = cores;
  raw.tasks.push_back(std::move(task));
  return raw;
}

bool fired(const LintReport& report, const std::string& rule) {
  return !report.by_rule(rule).empty();
}

// ---------------------------------------------------------------------------
// Clean models

TEST(LintCleanTest, ChainAndRegionTasksPass) {
  RawTaskSet raw;
  raw.cores = 4;
  raw.tasks.push_back(chain_task("bg", 3, 2));
  raw.tasks.push_back(region_task("cam", 3, 1));
  const LintReport report = lint::run_lint(raw);
  EXPECT_TRUE(report.clean()) << lint::render_text(report);
  EXPECT_EQ(report.error_count(), 0u);
}

// ---------------------------------------------------------------------------
// D family: DAG well-formedness

TEST(LintDagTest, D1CycleReportedWithWitness) {
  RawTask t = chain_task("cyc", 3);
  t.edges.push_back(RawEdge{2, 0});  // 0 -> 1 -> 2 -> 0
  const LintReport report = lint::run_lint(single(t));
  const auto diags = report.by_rule("RTP-D1");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_NE(diags[0].message.find("0 -> 1 -> 2 -> 0"), std::string::npos)
      << diags[0].message;
}

TEST(LintDagTest, D1SelfLoopReported) {
  RawTask t = chain_task("loop", 2);
  t.edges.push_back(RawEdge{1, 1});
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-D1"));
}

TEST(LintDagTest, D2DuplicateEdge) {
  RawTask t = chain_task("dup", 2);
  t.edges.push_back(RawEdge{0, 1});
  const LintReport report = lint::run_lint(single(t));
  const auto diags = report.by_rule("RTP-D2");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("0 -> 1"), std::string::npos);
}

TEST(LintDagTest, D3MultipleSources) {
  // Two chains merging: 0 -> 2 <- 1.
  RawTask t;
  t.name = "two_src";
  t.period = t.deadline = 100.0;
  for (int i = 0; i < 3; ++i) t.nodes.push_back(node(NodeType::NB));
  t.edges.push_back(RawEdge{0, 2});
  t.edges.push_back(RawEdge{1, 2});
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-D3"));
  EXPECT_FALSE(fired(report, "RTP-D4"));
}

TEST(LintDagTest, D4MultipleSinks) {
  RawTask t;
  t.name = "two_sink";
  t.period = t.deadline = 100.0;
  for (int i = 0; i < 3; ++i) t.nodes.push_back(node(NodeType::NB));
  t.edges.push_back(RawEdge{0, 1});
  t.edges.push_back(RawEdge{0, 2});
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-D4"));
  EXPECT_FALSE(fired(report, "RTP-D3"));
}

TEST(LintDagTest, D5DisconnectedNode) {
  RawTask t = chain_task("island", 4);
  t.edges.pop_back();  // orphan node 3
  const LintReport report = lint::run_lint(single(t));
  const auto diags = report.by_rule("RTP-D5");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("{3}"), std::string::npos) << diags[0].message;
}

TEST(LintDagTest, D6EmptyTask) {
  RawTask t;
  t.name = "empty";
  t.period = t.deadline = 100.0;
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-D6"));
  // Nothing else should fire for an empty task.
  EXPECT_EQ(report.error_count(), 1u);
}

// ---------------------------------------------------------------------------
// T family: timing / WCET

TEST(LintTimingTest, T1BadPeriodAndDeadline) {
  RawTask t = chain_task("bad_t", 2);
  t.period = -5.0;
  EXPECT_TRUE(fired(lint::run_lint(single(t)), "RTP-T1"));

  RawTask u = chain_task("bad_d", 2);
  u.deadline = 150.0;  // > period: constrained deadlines required
  const LintReport report = lint::run_lint(single(u));
  const auto diags = report.by_rule("RTP-T1");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("exceeds period"), std::string::npos);

  // Non-finite timing is an RTP-T1 error on the task, and the only error.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    RawTask p = chain_task("bad_p", 2);
    p.period = bad;
    RawTask d = chain_task("bad_d", 2);
    d.deadline = bad;
    for (const RawTask& task : {p, d}) {
      const LintReport r = lint::run_lint(single(task));
      const auto t1 = r.by_rule("RTP-T1");
      ASSERT_FALSE(t1.empty()) << task.name << " " << bad;
      EXPECT_EQ(t1[0].task, task.name);
      EXPECT_EQ(r.error_count(), 1u) << task.name << " " << bad;
    }
  }
}

TEST(LintTimingTest, T2NegativeAndAllZeroWcet) {
  RawTask t = chain_task("neg", 2);
  t.nodes[1].wcet = -1.0;
  const auto diags = lint::run_lint(single(t)).by_rule("RTP-T2");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].node, std::optional<std::size_t>(1));
  EXPECT_EQ(diags[0].message, "WCET on node 1 must be finite and >= 0 (got -1.000000)");

  RawTask u = chain_task("zero", 2);
  u.nodes[0].wcet = u.nodes[1].wcet = 0.0;
  EXPECT_TRUE(fired(lint::run_lint(single(u)), "RTP-T2"));

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf, -kInf}) {
    RawTask w = chain_task("non_finite", 3);
    w.nodes[1].wcet = bad;
    const LintReport r = lint::run_lint(single(w));
    const auto t2 = r.by_rule("RTP-T2");
    ASSERT_EQ(t2.size(), 1u) << bad;
    EXPECT_EQ(t2[0].task, "non_finite");
    EXPECT_EQ(t2[0].node, std::optional<std::size_t>(1));
    EXPECT_EQ(r.error_count(), 1u) << bad;
  }
}

// ---------------------------------------------------------------------------
// S family: structural restrictions (i)-(iii)

TEST(LintStructureTest, S1ForkWithoutChildrenOrJoin) {
  // Sink is a childless BF: no children, no join.
  RawTask t;
  t.name = "lonely_bf";
  t.period = t.deadline = 100.0;
  t.nodes.push_back(node(NodeType::NB));
  t.nodes.push_back(node(NodeType::BF));
  t.edges.push_back(RawEdge{0, 1});
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-S1"));
}

TEST(LintStructureTest, S1OrphanedChildAndJoin) {
  // BC/BJ that no region flood ever claims.
  RawTask t = chain_task("orphan", 3);
  t.nodes[1] = node(NodeType::BC);
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-S1"));
}

TEST(LintStructureTest, S2NestedRegions) {
  RawTask t = region_task("nested", 2);
  // Retype BC node 3 (a region member) into a second BF with its own child.
  t.nodes[3] = node(NodeType::BF);
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-S2"));
}

TEST(LintStructureTest, S3EdgeIntoRegion) {
  RawTask t = region_task("leaky", 2);
  t.edges.push_back(RawEdge{0, 3});  // source -> BC: crosses the boundary
  const LintReport report = lint::run_lint(single(t));
  const auto diags = report.by_rule("RTP-S3");
  ASSERT_GE(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("incoming edge"), std::string::npos)
      << diags[0].message;
}

TEST(LintStructureTest, S3NbInsideRegion) {
  RawTask t = region_task("nb_in", 2);
  t.nodes[3] = node(NodeType::NB);  // NB where only BC may appear
  const LintReport report = lint::run_lint(single(t));
  EXPECT_TRUE(fired(report, "RTP-S3"));
}

// ---------------------------------------------------------------------------
// L family: deadlock lemmas

RawTask two_concurrent_regions(const std::string& name) {
  // Figure 1(c): two parallel blocking regions between common source/sink.
  RawTask t;
  t.name = name;
  t.period = t.deadline = 1000.0;
  t.nodes.push_back(node(NodeType::NB));  // 0 source
  t.nodes.push_back(node(NodeType::BF));  // 1
  t.nodes.push_back(node(NodeType::BJ));  // 2
  t.nodes.push_back(node(NodeType::BC));  // 3
  t.nodes.push_back(node(NodeType::BF));  // 4
  t.nodes.push_back(node(NodeType::BJ));  // 5
  t.nodes.push_back(node(NodeType::BC));  // 6
  t.nodes.push_back(node(NodeType::NB));  // 7 sink
  t.edges = {RawEdge{0, 1}, RawEdge{1, 3}, RawEdge{3, 2}, RawEdge{2, 7},
             RawEdge{0, 4}, RawEdge{4, 6}, RawEdge{6, 5}, RawEdge{5, 7}};
  return t;
}

TEST(LintDeadlockTest, L1AndL2FireOnTightPool) {
  const LintReport report =
      lint::run_lint(single(two_concurrent_regions("fig1c"), /*cores=*/2));
  const auto l1 = report.by_rule("RTP-L1");
  ASSERT_EQ(l1.size(), 1u);
  EXPECT_NE(l1[0].message.find("Lemma 1"), std::string::npos);
  const auto l2 = report.by_rule("RTP-L2");
  ASSERT_EQ(l2.size(), 1u);
  EXPECT_NE(l2[0].message.find("wait-for cycle"), std::string::npos);
  EXPECT_TRUE(fired(report, "RTP-P1"));  // l-bar = 0 rides along
  EXPECT_FALSE(report.clean());
}

TEST(LintDeadlockTest, L1SilentOnSufficientPool) {
  const LintReport report =
      lint::run_lint(single(two_concurrent_regions("fig1c"), /*cores=*/3));
  EXPECT_FALSE(fired(report, "RTP-L1"));
  EXPECT_FALSE(fired(report, "RTP-L2"));
  EXPECT_TRUE(report.clean()) << lint::render_text(report);
}

TEST(LintDeadlockTest, L3FiresUnderWorstFitNotAlgorithm1) {
  // The heavy BC fills core 0, the fused BF+BJ lands on core 1, and the
  // light BC follows onto core 1 — sharing its own fork's thread.
  RawTask t = region_task("cam", 2);
  t.nodes[3].wcet = 5.0;
  const LintReport bad =
      lint::run_lint(single(t, /*cores=*/2), PartitionSource::kWorstFit);
  const auto l3 = bad.by_rule("RTP-L3");
  ASSERT_EQ(l3.size(), 1u);
  EXPECT_NE(l3[0].message.find("Eq. (3)"), std::string::npos);
  EXPECT_EQ(l3[0].node, std::optional<std::size_t>(4));

  EXPECT_TRUE(lint::run_lint(single(t, 2), PartitionSource::kAlgorithm1).clean());
}

// ---------------------------------------------------------------------------
// P family: pool sizing

TEST(LintPoolTest, P2MoreThreadsThanNodes) {
  const LintReport report = lint::run_lint(single(chain_task("tiny", 2), 8));
  const auto diags = report.by_rule("RTP-P2");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kNote);
  EXPECT_TRUE(report.clean());  // notes don't fail the lint
}

TEST(LintPoolTest, P3PartitionerFailure) {
  RawTask t = chain_task("heavy", 2);
  t.nodes[1].wcet = 250.0;  // node utilization 2.5 > 1 on every core
  const LintReport report = lint::run_lint(single(t, 2), PartitionSource::kWorstFit);
  const auto diags = report.by_rule("RTP-P3");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_TRUE(fired(report, "RTP-C4"));  // overload warning rides along
}

// ---------------------------------------------------------------------------
// C family: cross-task consistency

TEST(LintSetTest, C1DuplicateNames) {
  RawTaskSet raw;
  raw.cores = 4;
  raw.tasks.push_back(chain_task("twin", 2, 0));
  raw.tasks.push_back(chain_task("twin", 3, 1));
  const LintReport report = lint::run_lint(raw);
  const auto diags = report.by_rule("RTP-C1");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].task, "twin");
}

TEST(LintSetTest, C2SharedPriorities) {
  RawTaskSet raw;
  raw.cores = 4;
  raw.tasks.push_back(chain_task("a", 2, 7));
  raw.tasks.push_back(chain_task("b", 2, 7));
  const LintReport report = lint::run_lint(raw);
  const auto diags = report.by_rule("RTP-C2");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_TRUE(report.clean());
}

TEST(LintSetTest, C4Overload) {
  RawTask t = chain_task("hog", 2);
  t.nodes[0].wcet = t.nodes[1].wcet = 150.0;  // U = 3 on 2 cores
  const LintReport report = lint::run_lint(single(t, 2));
  const auto diags = report.by_rule("RTP-C4");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
}

// ---------------------------------------------------------------------------
// Raw parser + renderers

TEST(LintIoTest, RawParserKeepsModelDefects) {
  const std::string text =
      "taskset cores=2\n"
      "task name=broken period=10 deadline=10 priority=0 nodes=2\n"
      "node 0 wcet=1 type=NB\n"
      "node 1 wcet=1 type=NB\n"
      "edge 0 1\n"
      "edge 0 1\n"   // duplicate: must parse, lint flags it
      "edge 1 1\n"   // self-loop: must parse, lint flags it
      "endtask\n";
  std::istringstream is(text);
  const RawTaskSet raw = model::read_raw_task_set(is);
  ASSERT_EQ(raw.tasks.size(), 1u);
  EXPECT_EQ(raw.tasks[0].edges.size(), 3u);
  const LintReport report = lint::run_lint(raw);
  EXPECT_TRUE(fired(report, "RTP-D1"));
  EXPECT_TRUE(fired(report, "RTP-D2"));
}

TEST(LintRenderTest, TextRendererShape) {
  const LintReport report =
      lint::run_lint(single(two_concurrent_regions("fig1c"), 2));
  const std::string text = lint::render_text(report);
  EXPECT_NE(text.find("error[RTP-L1] task 'fig1c'"), std::string::npos) << text;
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("2 errors, 1 warning, 0 notes"), std::string::npos) << text;
}

TEST(LintRenderTest, JsonRoundTripsThroughParser) {
  const LintReport report =
      lint::run_lint(single(two_concurrent_regions("fig1c"), 2));
  ASSERT_FALSE(report.diagnostics.empty());

  const util::JsonValue doc = util::parse_json(lint::render_json(report));
  EXPECT_EQ(doc.at("tool").as_string(), "rtpool-lint");
  EXPECT_EQ(doc.at("version").as_number(), 1.0);

  const auto& diags = doc.at("diagnostics").as_array();
  ASSERT_EQ(diags.size(), report.diagnostics.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const lint::Diagnostic& d = report.diagnostics[i];
    EXPECT_EQ(diags[i].at("rule_id").as_string(), d.rule_id);
    EXPECT_EQ(diags[i].at("severity").as_string(), lint::to_string(d.severity));
    EXPECT_EQ(diags[i].at("task").as_string(), d.task);
    EXPECT_EQ(diags[i].at("message").as_string(), d.message);
    EXPECT_EQ(diags[i].at("fix_hint").as_string(), d.fix_hint);
    if (d.node.has_value())
      EXPECT_EQ(diags[i].at("node").as_number(), static_cast<double>(*d.node));
    else
      EXPECT_TRUE(diags[i].at("node").is_null());
  }

  const util::JsonValue& counts = doc.at("counts");
  EXPECT_EQ(counts.at("errors").as_number(),
            static_cast<double>(report.error_count()));
  EXPECT_EQ(counts.at("warnings").as_number(),
            static_cast<double>(report.warning_count()));
  EXPECT_EQ(counts.at("notes").as_number(),
            static_cast<double>(report.note_count()));
}

// ---------------------------------------------------------------------------
// One checker: lint and the model agree on every single-edit mutation

/// Every single edit of one task: drop, reverse or duplicate each edge; add
/// each ordered node pair as an edge (self-loops included); retype each node
/// to each other type; set each WCET to -1; set the period to 0; set the
/// deadline to 2T. Each mutant comes with a label for failure messages.
std::vector<std::pair<std::string, RawTask>> single_edits(const RawTask& task) {
  std::vector<std::pair<std::string, RawTask>> out;
  const auto edit = [&](std::string label, auto&& change) {
    RawTask mutant = task;
    change(mutant);
    out.emplace_back(task.name + ": " + label, std::move(mutant));
  };
  const auto edge_label = [](const RawEdge& e) {
    return std::to_string(e.from) + " -> " + std::to_string(e.to);
  };
  for (std::size_t i = 0; i < task.edges.size(); ++i) {
    const std::string e = edge_label(task.edges[i]);
    edit("drop " + e, [&](RawTask& t) { t.edges.erase(t.edges.begin() + i); });
    edit("reverse " + e,
         [&](RawTask& t) { std::swap(t.edges[i].from, t.edges[i].to); });
    edit("duplicate " + e, [&](RawTask& t) { t.edges.push_back(t.edges[i]); });
  }
  const std::size_t n = task.nodes.size();
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = 0; v < n; ++v)
      edit("add " + edge_label(RawEdge{u, v}),
           [&](RawTask& t) { t.edges.push_back(RawEdge{u, v}); });
  for (std::size_t v = 0; v < n; ++v)
    for (const NodeType type : {NodeType::NB, NodeType::BF, NodeType::BJ, NodeType::BC})
      if (type != task.nodes[v].type)
        edit("retype " + std::to_string(v) + " " + model::to_string(type),
             [&](RawTask& t) { t.nodes[v].type = type; });
  for (std::size_t v = 0; v < n; ++v)
    edit("wcet " + std::to_string(v) + " = -1",
         [&](RawTask& t) { t.nodes[v].wcet = -1.0; });
  edit("period = 0", [](RawTask& t) { t.period = 0.0; });
  edit("deadline = 2T", [](RawTask& t) { t.deadline = 2.0 * t.period; });
  return out;
}

TEST(LintModelAgreementTest, SingleEditsOfTheShippedModels) {
  std::size_t cases = 0;
  std::size_t rejected = 0;
  for (const char* file : {"eq3_worst_fit", "fig1", "fig1c_deadlock", "mixed_set"}) {
    const RawTaskSet shipped = model::load_raw_task_set(
        std::string(RTPOOL_SOURCE_DIR) + "/data/" + file + ".taskset");
    for (std::size_t i = 0; i < shipped.tasks.size(); ++i) {
      for (auto& [label, mutant] : single_edits(shipped.tasks[i])) {
        RawTaskSet raw = shipped;
        raw.tasks[i] = std::move(mutant);
        const std::string& name = raw.tasks[i].name;
        ++cases;

        // The model builds the set the way read_task_set does.
        std::optional<std::string> model_error;
        try {
          model::TaskSet ts(raw.cores);
          for (const RawTask& task : raw.tasks) ts.add(model::build_task(task));
        } catch (const model::ModelError& e) {
          model_error = e.what();
        }

        // Lint: the task's first error, when it is a Section 2 (D/T/S) one.
        std::optional<std::string> lint_error;
        for (const lint::Diagnostic& d : lint::run_lint(raw).diagnostics) {
          if (d.severity != Severity::kError || d.task != name) continue;
          if (d.rule_id.rfind("RTP-D", 0) == 0 || d.rule_id.rfind("RTP-T", 0) == 0 ||
              d.rule_id.rfind("RTP-S", 0) == 0)
            lint_error = name + ": " + d.message;
          break;
        }
        EXPECT_EQ(model_error, lint_error) << file << " " << label;
        rejected += model_error.has_value();
      }
    }
  }
  EXPECT_EQ(cases, 645u);
  EXPECT_EQ(rejected, 589u);
}

}  // namespace
