// Flag handling shared by the figure driver (sweep) and rtpool_cli.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "util/args.h"

namespace rtpool::bench {

/// Parse argv against the driver's keys plus `--seed` and
/// `--list-analyzers`, which prints the analyzer registry (name and
/// one-line description) and exits 0.
inline util::Args parse_args(int argc, const char* const argv[],
                             std::vector<std::string> keys) {
  for (const char* key : {"seed", "list-analyzers"}) keys.emplace_back(key);
  util::Args args(argc, argv, keys);
  if (args.get_bool("list-analyzers", false)) {
    std::printf("registered analyzers:\n");
    for (const analysis::Analyzer* a : analysis::registered_analyzers())
      std::printf("  %-34s %s\n", std::string(a->name()).c_str(),
                  std::string(a->description()).c_str());
    std::exit(0);
  }
  return args;
}

}  // namespace rtpool::bench
