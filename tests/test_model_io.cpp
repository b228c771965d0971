// Unit tests for the .taskset text format (src/model/io.*).
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "model/builder.h"
#include "model/io.h"

namespace rtpool::model {
namespace {

TaskSet sample_set() {
  TaskSet ts(4);
  {
    DagTaskBuilder b("tau0");
    const NodeId pre = b.add_node(10.0, NodeType::NB);
    const auto fj = b.add_blocking_fork_join(20.0, 5.0, {30.0, 30.0});
    b.add_edge(pre, fj.fork);
    b.period(1200.0).priority(0);
    ts.add(b.build());
  }
  ts.add(make_fork_join_task("tau1", 3, 7.5, 333.25, false).with_priority(1));
  return ts;
}

TEST(IoTest, RoundTrip) {
  const TaskSet original = sample_set();
  std::stringstream ss;
  write_task_set(ss, original);
  const TaskSet parsed = read_task_set(ss);

  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(parsed.core_count(), original.core_count());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const DagTask& a = original.task(i);
    const DagTask& b = parsed.task(i);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_DOUBLE_EQ(a.period(), b.period());
    EXPECT_DOUBLE_EQ(a.deadline(), b.deadline());
    EXPECT_EQ(a.priority(), b.priority());
    ASSERT_EQ(a.node_count(), b.node_count());
    for (NodeId v = 0; v < a.node_count(); ++v) {
      EXPECT_DOUBLE_EQ(a.wcet(v), b.wcet(v));
      EXPECT_EQ(a.type(v), b.type(v));
    }
    EXPECT_EQ(a.dag().edges(), b.dag().edges());
  }
}

TEST(IoTest, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "rtpool_io_test.taskset";
  save_task_set(path.string(), sample_set());
  const TaskSet loaded = load_task_set(path.string());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.task(0).name(), "tau0");
  std::filesystem::remove(path);
}

TEST(IoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_task_set("/nonexistent/rtpool.taskset"), std::runtime_error);
}

TEST(IoTest, ParsesCommentsAndBlankLines) {
  std::stringstream ss(R"(# header comment

taskset cores=2
# a task
task name=t period=10 deadline=10 priority=0 nodes=1
node 0 wcet=1 type=NB
endtask
)");
  const TaskSet ts = read_task_set(ss);
  EXPECT_EQ(ts.size(), 1u);
}

struct BadInput {
  const char* label;
  const char* text;
};

// Without this gtest prints a BadInput as its raw bytes — two pointers whose
// values change from run to run — and the listed test names with them.
void PrintTo(const BadInput& in, std::ostream* os) { *os << in.label; }

class IoErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(IoErrorTest, Rejects) {
  std::stringstream ss(GetParam().text);
  EXPECT_THROW(read_task_set(ss), ParseError) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    MalformedInputs, IoErrorTest,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"no_header", "task name=t period=1 deadline=1 priority=0 nodes=0\n"},
        BadInput{"dup_header", "taskset cores=2\ntaskset cores=2\n"},
        BadInput{"bad_cores", "taskset cores=0\n"},
        BadInput{"cores_nan", "taskset cores=abc\n"},
        BadInput{"unknown_keyword", "taskset cores=1\nbogus\n"},
        BadInput{"node_outside_task", "taskset cores=1\nnode 0 wcet=1 type=NB\n"},
        BadInput{"edge_outside_task", "taskset cores=1\nedge 0 1\n"},
        BadInput{"stray_endtask", "taskset cores=1\nendtask\n"},
        BadInput{"nested_task",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=1\ntask name=b period=1 deadline=1 priority=0 nodes=1\n"},
        BadInput{"sparse_node_ids",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=2\nnode 1 wcet=1 type=NB\nendtask\n"},
        BadInput{"bad_type",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=1\nnode 0 wcet=1 type=ZZ\nendtask\n"},
        BadInput{"edge_out_of_range",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=1\nnode 0 wcet=1 type=NB\nedge 0 5\nendtask\n"},
        BadInput{"node_count_mismatch",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=2\nnode 0 wcet=1 type=NB\nendtask\n"},
        BadInput{"missing_key",
                 "taskset cores=1\ntask name=a period=1 priority=0 nodes=1\n"},
        BadInput{"unterminated_task",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=1\nnode 0 wcet=1 type=NB\n"},
        BadInput{"priority_overflow",
                 "taskset cores=1\ntask name=a period=1 deadline=1 "
                 "priority=4294967297 nodes=1\nnode 0 wcet=1 type=NB\nendtask\n"},
        BadInput{"negative_nodes",
                 "taskset cores=1\ntask name=a period=1 deadline=1 priority=0 "
                 "nodes=-1\nnode 0 wcet=1 type=NB\nendtask\n"}),
    [](const ::testing::TestParamInfo<BadInput>& param_info) {
      return param_info.param.label;
    });

/// The ParseError text `text` raises (empty if it parses).
std::string parse_error_of(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_task_set(ss);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

std::string one_task_with(const std::string& priority, const std::string& nodes) {
  return "taskset cores=1\ntask name=a period=1 deadline=1 priority=" + priority +
         " nodes=" + nodes + "\nnode 0 wcet=1 type=NB\nendtask\n";
}

TEST(IoTest, RejectsPrioritiesOutsideIntOnTheTaskLine) {
  // A narrowing cast would turn 2^32 into priority 0 and 2^32 + 1 into 1.
  for (const char* priority : {"4294967296", "4294967297", "2147483648", "-2147483649"})
    EXPECT_EQ(parse_error_of(one_task_with(priority, "1")),
              "line 2: priority out of range")
        << priority;
}

TEST(IoTest, RejectsNegativeNodeCountOnTheTaskLine) {
  EXPECT_EQ(parse_error_of(one_task_with("0", "-1")), "line 2: nodes must be >= 0");
}

TEST(IoTest, PrioritiesAtTheIntLimitsParse) {
  for (const int priority :
       {std::numeric_limits<int>::max(), std::numeric_limits<int>::min()}) {
    std::stringstream ss(one_task_with(std::to_string(priority), "1"));
    const TaskSet ts = read_task_set(ss);
    ASSERT_EQ(ts.size(), 1u);
    EXPECT_EQ(ts.task(0).priority(), priority);
  }
}

// ---------- shipped sample files ----------

class DataFileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DataFileTest, LoadsAnalyzesAndRoundTrips) {
  const std::string path = std::string(RTPOOL_SOURCE_DIR) + "/data/" + GetParam();
  const TaskSet ts = load_task_set(path);
  EXPECT_GE(ts.size(), 1u);
  EXPECT_GE(ts.core_count(), 2u);

  std::stringstream ss;
  write_task_set(ss, ts);
  const TaskSet again = read_task_set(ss);
  ASSERT_EQ(again.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(again.task(i).name(), ts.task(i).name());
    EXPECT_EQ(again.task(i).node_count(), ts.task(i).node_count());
    EXPECT_DOUBLE_EQ(again.task(i).volume(), ts.task(i).volume());
  }
}

INSTANTIATE_TEST_SUITE_P(Shipped, DataFileTest,
                         ::testing::Values("fig1.taskset",
                                           "fig1c_deadlock.taskset",
                                           "mixed_set.taskset"));

TEST(DataFileTest, Fig1cHasZeroConcurrencyBound) {
  const TaskSet ts = load_task_set(std::string(RTPOOL_SOURCE_DIR) +
                                   "/data/fig1c_deadlock.taskset");
  EXPECT_EQ(ts.task(0).blocking_fork_count(), 2u);
}

TEST(IoTest, ModelErrorsPropagate) {
  // Structurally invalid task (two sources) passes parsing but fails model
  // validation inside DagTask's constructor.
  std::stringstream ss(R"(taskset cores=1
task name=a period=1 deadline=1 priority=0 nodes=2
node 0 wcet=1 type=NB
node 1 wcet=1 type=NB
endtask
)");
  EXPECT_THROW(read_task_set(ss), ModelError);

  // Self-loops and duplicate edges read fine (a graph::Dag cannot hold
  // them) and are model defects too, reported in the checker's order:
  // self-loops before duplicates.
  std::stringstream loops(R"(taskset cores=2
task name=broken period=10 deadline=10 priority=0 nodes=2
node 0 wcet=1 type=NB
node 1 wcet=1 type=NB
edge 0 1
edge 0 1
edge 1 1
endtask
)");
  try {
    (void)read_task_set(loops);
    ADD_FAILURE() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "broken: self-loop on node 1 (cycle: 1 -> 1)");
  }
}

}  // namespace
}  // namespace rtpool::model
