// rtpool_perfbench: the repository's benchmark binary (see perfbench/run.py,
// which builds this binary and forwards its arguments).
//
//   rtpool_perfbench --workload corpus|fig2|serve_cold|serve_resubmit
//                    --seed N --seconds S --trace 0|1
//                    [--references FILE] [--out-dir DIR]
//
// Every workload checks its outputs; a failed check exits 3 without a
// result. The last line of standard output is the result:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 it carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of the traced run. The line above it stamps the host
// and build.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "util/json.h"

namespace {

using namespace perfbench;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

Options parse_options(int argc, char** argv) {
  Options options;
  options.references = "perfbench/references.json";
  options.out_dir = ".bench_build/out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value != "0";
    } else if (key == "--references") {
      options.references = value;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  options.threads = host_nproc();
  std::filesystem::create_directories(options.out_dir);
  return options;
}

void print_result(const Outcome& outcome) {
  std::ostringstream os;
  rtpool::util::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", true);
  w.kv("attempted", outcome.attempted);
  w.kv("failed", outcome.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, metric] : outcome.metrics) {
    if (!std::isfinite(metric.first))
      throw std::runtime_error("metric " + name + " is not finite");
    w.key(name).begin_object();
    w.kv("value", metric.first);
    w.kv("unit", metric.second);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << "stamp " << stamp_json() << '\n' << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "rtpool_perfbench: refusing to report from a build without "
                 "optimisation (NDEBUG unset); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 5;
  }
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtpool_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    Outcome outcome;
    if (options.workload == "corpus") {
      outcome = run_corpus(options);
    } else if (options.workload == "fig2") {
      outcome = run_fig2(options);
    } else if (options.workload == "serve_cold") {
      outcome = run_serve(options, /*resubmit=*/false);
    } else if (options.workload == "serve_resubmit") {
      outcome = run_serve(options, /*resubmit=*/true);
    } else {
      std::fprintf(stderr, "rtpool_perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    std::fflush(stdout);
    print_result(outcome);
  } catch (const CheckFailed& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "rtpool_perfbench: CHECK FAILED: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "rtpool_perfbench: %s\n", e.what());
    return 4;
  }
  return 0;
}
