// rtpool-lint: static analysis of .taskset models against the paper's
// structural and deadlock conditions.
//
//   rtpool_lint --file data/mixed_set.taskset
//   rtpool_lint --file model.taskset --format=json
//   rtpool_lint --file model.taskset --partition=worst-fit
//
// Exit status: 0 when the model is clean (warnings/notes allowed), 1 when
// any error-severity diagnostic fired, 2 on usage/file/parse errors.

#include <fstream>
#include <iostream>
#include <string>

#include "lint/render.h"
#include "lint/rules.h"
#include "model/io.h"
#include "util/args.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: rtpool_lint --file <model.taskset> [options]\n"
        "\n"
        "Static model analysis for thread-pool DAG tasks (rule ids RTP-*).\n"
        "\n"
        "options:\n"
        "  --file=PATH        .taskset model to lint (required)\n"
        "  --format=FMT       'text' (default) or 'json'\n"
        "  --partition=ALG    node-to-thread partition for the Lemma 3 /\n"
        "                     Eq. (3) rules: 'none' (default), 'worst-fit',\n"
        "                     or 'algorithm1'\n"
        "  --help             show this help\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtpool;

  lint::PartitionSource partition_source = lint::PartitionSource::kNone;
  std::string path;
  std::string format;
  try {
    const util::Args args(argc, argv, {"file", "format", "partition", "help"});
    if (args.get_bool("help", false)) {
      usage(std::cout);
      return 0;
    }
    path = args.get_string("file", "");
    if (path.empty()) throw std::invalid_argument("--file is required");
    format = args.get_string("format", "text");
    if (format != "text" && format != "json")
      throw std::invalid_argument("--format must be 'text' or 'json', got '" +
                                  format + "'");
    const std::string partition = args.get_string("partition", "none");
    if (partition == "none")
      partition_source = lint::PartitionSource::kNone;
    else if (partition == "worst-fit")
      partition_source = lint::PartitionSource::kWorstFit;
    else if (partition == "algorithm1")
      partition_source = lint::PartitionSource::kAlgorithm1;
    else
      throw std::invalid_argument(
          "--partition must be 'none', 'worst-fit' or 'algorithm1', got '" +
          partition + "'");
  } catch (const std::exception& e) {
    std::cerr << "rtpool_lint: " << e.what() << "\n\n";
    usage(std::cerr);
    return 2;
  }

  lint::LintReport report;
  try {
    report = lint::run_lint(model::load_raw_task_set(path), partition_source);
  } catch (const model::ParseError& e) {
    // File-format errors (not model defects) cannot be linted around.
    std::cerr << "rtpool_lint: " << path << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "rtpool_lint: " << e.what() << "\n";
    return 2;
  }

  if (format == "json")
    lint::render_json(report, std::cout);
  else
    lint::render_text(report, std::cout);

  return report.clean() ? 0 : 1;
}
