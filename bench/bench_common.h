// Flag handling shared by the bench drivers and rtpool_cli.
//
// Every driver accepts the same engine/run plumbing — `--threads`, `--seed`,
// `--trials`, `--certify-sample`, `--list-analyzers` — plus its own keys.
// Only perf_sweep reads `--certify-sample`; the others accept and ignore it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "util/args.h"

namespace rtpool::bench {

/// Keys every driver understands (parse_args appends them).
inline std::vector<std::string> with_common_keys(std::vector<std::string> keys) {
  for (const char* key :
       {"threads", "seed", "trials", "certify-sample", "list-analyzers"})
    keys.emplace_back(key);
  return keys;
}

/// Print the analyzer registry (name + one-line description).
inline void print_analyzer_registry() {
  std::printf("registered analyzers:\n");
  for (const analysis::Analyzer* a : analysis::registered_analyzers())
    std::printf("  %-34s %s\n", std::string(a->name()).c_str(),
                std::string(a->description()).c_str());
}

/// Parse argv against the driver's keys plus the common set. Handles
/// `--list-analyzers` (prints the registry and exits 0) so every driver
/// can enumerate the analysis spine without bespoke code.
inline util::Args parse_args(int argc, const char* const argv[],
                             std::vector<std::string> keys) {
  util::Args args(argc, argv, with_common_keys(std::move(keys)));
  if (args.get_bool("list-analyzers", false)) {
    print_analyzer_registry();
    std::exit(0);
  }
  return args;
}

/// The run-plumbing flags every driver reads.
struct CommonFlags {
  int threads = 1;           ///< Engine workers (0 = all hardware threads).
  std::uint64_t seed = 1;    ///< Root seed (forked per attempt).
  int trials = 500;          ///< Accepted task sets per point.
};

inline CommonFlags common_flags(const util::Args& args, int default_trials = 500) {
  CommonFlags flags;
  flags.threads = static_cast<int>(args.get_int("threads", 1));
  flags.seed = args.get_uint64("seed", 1);
  flags.trials = static_cast<int>(args.get_int("trials", default_trials));
  return flags;
}

}  // namespace rtpool::bench
