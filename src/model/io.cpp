#include "model/io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

namespace rtpool::model {

namespace {

/// Parse "key=value" tokens from the remainder of a line.
std::map<std::string, std::string> parse_kv(std::istringstream& line, int lineno) {
  std::map<std::string, std::string> kv;
  std::string token;
  while (line >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw ParseError("line " + std::to_string(lineno) +
                       ": expected key=value, got '" + token + "'");
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

const std::string& require(const std::map<std::string, std::string>& kv,
                           const std::string& key, int lineno) {
  const auto it = kv.find(key);
  if (it == kv.end())
    throw ParseError("line " + std::to_string(lineno) + ": missing '" + key + "='");
  return it->second;
}

double to_double(const std::string& s, int lineno) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError("line " + std::to_string(lineno) + ": bad number '" + s + "'");
  }
}

long to_long(const std::string& s, int lineno) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError("line " + std::to_string(lineno) + ": bad integer '" + s + "'");
  }
}

/// The .taskset tokenizer: reports the header's core count to `on_header`
/// and hands each task to `on_task` at its `endtask` line.
template <typename OnHeader, typename OnTask>
void tokenize(std::istream& is, OnHeader&& on_header, OnTask&& on_task) {
  bool saw_header = false;
  bool in_task = false;
  RawTask current;
  std::size_t declared_nodes = 0;

  std::string raw;
  int lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) continue;     // blank line
    if (keyword[0] == '#') continue;      // comment

    if (keyword == "taskset") {
      if (saw_header)
        throw ParseError("line " + std::to_string(lineno) + ": duplicate 'taskset'");
      const auto kv = parse_kv(line, lineno);
      const long cores = to_long(require(kv, "cores", lineno), lineno);
      if (cores <= 0)
        throw ParseError("line " + std::to_string(lineno) + ": cores must be > 0");
      on_header(static_cast<std::size_t>(cores));
      saw_header = true;
    } else if (keyword == "task") {
      if (!saw_header)
        throw ParseError("line " + std::to_string(lineno) + ": 'task' before 'taskset'");
      if (in_task)
        throw ParseError("line " + std::to_string(lineno) + ": nested 'task'");
      const auto kv = parse_kv(line, lineno);
      current.name = require(kv, "name", lineno);
      current.period = to_double(require(kv, "period", lineno), lineno);
      current.deadline = to_double(require(kv, "deadline", lineno), lineno);
      const long priority = to_long(require(kv, "priority", lineno), lineno);
      const long nodes = to_long(require(kv, "nodes", lineno), lineno);
      if (priority < std::numeric_limits<int>::min() ||
          priority > std::numeric_limits<int>::max())
        throw ParseError("line " + std::to_string(lineno) + ": priority out of range");
      if (nodes < 0)
        throw ParseError("line " + std::to_string(lineno) + ": nodes must be >= 0");
      current.priority = static_cast<int>(priority);
      declared_nodes = static_cast<std::size_t>(nodes);
      in_task = true;
    } else if (keyword == "node") {
      if (!in_task)
        throw ParseError("line " + std::to_string(lineno) + ": 'node' outside task");
      long id = 0;
      if (!(line >> id))
        throw ParseError("line " + std::to_string(lineno) + ": missing node id");
      if (id != static_cast<long>(current.nodes.size()))
        throw ParseError("line " + std::to_string(lineno) +
                         ": node ids must be dense and in order");
      const auto kv = parse_kv(line, lineno);
      Node n;
      n.wcet = to_double(require(kv, "wcet", lineno), lineno);
      try {
        n.type = node_type_from_string(require(kv, "type", lineno));
      } catch (const std::invalid_argument& e) {
        throw ParseError("line " + std::to_string(lineno) + ": " + e.what());
      }
      current.nodes.push_back(n);
    } else if (keyword == "edge") {
      if (!in_task)
        throw ParseError("line " + std::to_string(lineno) + ": 'edge' outside task");
      long from = 0;
      long to = 0;
      if (!(line >> from >> to))
        throw ParseError("line " + std::to_string(lineno) + ": edge needs two node ids");
      if (from < 0 || to < 0 || static_cast<std::size_t>(from) >= current.nodes.size() ||
          static_cast<std::size_t>(to) >= current.nodes.size())
        throw ParseError("line " + std::to_string(lineno) + ": edge id out of range");
      // Self-loops and duplicate edges are model defects, not syntax.
      current.edges.push_back(
          RawEdge{static_cast<std::size_t>(from), static_cast<std::size_t>(to)});
    } else if (keyword == "endtask") {
      if (!in_task)
        throw ParseError("line " + std::to_string(lineno) + ": stray 'endtask'");
      if (current.nodes.size() != declared_nodes)
        throw ParseError("line " + std::to_string(lineno) + ": task '" + current.name +
                         "' declared " + std::to_string(declared_nodes) +
                         " nodes but has " + std::to_string(current.nodes.size()));
      in_task = false;
      on_task(std::exchange(current, RawTask{}));
    } else {
      throw ParseError("line " + std::to_string(lineno) + ": unknown keyword '" +
                       keyword + "'");
    }
  }
  if (in_task)
    throw ParseError("unexpected end of input inside task '" + current.name + "'");
  if (!saw_header) throw ParseError("input contains no 'taskset' header");
}

/// A raw task's edges as a graph::Dag, plus the ones a Dag cannot hold.
struct SplitEdges {
  graph::Dag dag;
  std::vector<NodeId> self_loops;
  std::vector<graph::Edge> duplicates;

  TaskDraft draft(const RawTask& task) const {
    return TaskDraft{dag, task.nodes, task.period, task.deadline, self_loops, duplicates};
  }
};

SplitEdges split_edges(const RawTask& task) {
  SplitEdges split{graph::Dag(task.nodes.size()), {}, {}};
  for (const RawEdge& e : task.edges) {
    const auto from = static_cast<NodeId>(e.from);
    const auto to = static_cast<NodeId>(e.to);
    if (from == to)
      split.self_loops.push_back(from);
    else if (split.dag.has_edge(from, to))
      split.duplicates.push_back(graph::Edge{from, to});
    else
      split.dag.add_edge_unchecked(from, to);
  }
  return split;
}

}  // namespace

RawTaskSet read_raw_task_set(std::istream& is) {
  RawTaskSet raw;
  tokenize(
      is, [&](std::size_t cores) { raw.cores = cores; },
      [&](RawTask&& task) { raw.tasks.push_back(std::move(task)); });
  return raw;
}

RawTaskSet load_raw_task_set(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_raw_task_set: cannot open " + path);
  return read_raw_task_set(in);
}

void check_raw_task(const RawTask& task, const DefectSink& report) {
  const SplitEdges split = split_edges(task);
  check_task(split.draft(task), report);
}

DagTask build_task(RawTask task) {
  SplitEdges split = split_edges(task);
  // The checker reports the self-loop or duplicate edge at the latest.
  if (!split.self_loops.empty() || !split.duplicates.empty())
    check_task(split.draft(task), model_error_sink(task.name));
  return DagTask(std::move(task.name), std::move(split.dag), std::move(task.nodes),
                 task.period, task.deadline, task.priority);
}

void write_task_set(std::ostream& os, const TaskSet& ts) {
  os << "# rtpool task set\n";
  os << "taskset cores=" << ts.core_count() << "\n";
  os << std::setprecision(17);
  for (const DagTask& t : ts.tasks()) {
    os << "task name=" << t.name() << " period=" << t.period()
       << " deadline=" << t.deadline() << " priority=" << t.priority()
       << " nodes=" << t.node_count() << "\n";
    for (NodeId v = 0; v < t.node_count(); ++v) {
      os << "node " << v << " wcet=" << t.wcet(v) << " type=" << to_string(t.type(v))
         << "\n";
    }
    for (const graph::Edge& e : t.dag().edges())
      os << "edge " << e.from << " " << e.to << "\n";
    os << "endtask\n";
  }
}

void save_task_set(const std::string& path, const TaskSet& ts) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_task_set: cannot open " + path);
  write_task_set(out, ts);
}

TaskSet read_task_set(std::istream& is) {
  std::optional<TaskSet> ts;
  tokenize(
      is, [&](std::size_t cores) { ts.emplace(cores); },
      [&](RawTask&& task) { ts->add(build_task(std::move(task))); });
  return *std::move(ts);
}

TaskSet load_task_set(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_task_set: cannot open " + path);
  return read_task_set(in);
}

}  // namespace rtpool::model
