// Tiny command-line argument parser for bench/example binaries.
//
// Supports `--key=value`, `--key value` and boolean flags `--key`. Unknown
// keys are rejected so typos in experiment parameters fail loudly instead of
// silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rtpool::util {

/// Parse `text` as a whole unsigned 64-bit decimal integer: no minus sign,
/// nothing after the digits, no overflow; nullopt otherwise. Every unsigned
/// flag value goes through it — Args::get_uint64 and the CLIs' `A:B`
/// splitters — so each can name its flag in its own error message.
std::optional<std::uint64_t> parse_uint64(const std::string& text);

/// Parsed command line with typed accessors and default values.
class Args {
 public:
  /// Parse argv. `known_keys` lists every accepted `--key`; an unknown key or
  /// a positional argument throws std::invalid_argument (message includes
  /// the offending token).
  Args(int argc, const char* const argv[], const std::vector<std::string>& known_keys);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Unsigned 64-bit value (seeds, counters). Rejects negative input, which
  /// a get_int → uint64 cast would silently wrap into a huge value.
  std::uint64_t get_uint64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated list of integers, e.g. `--m=2,4,8`.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         const std::vector<std::int64_t>& fallback) const;

 private:
  std::optional<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace rtpool::util
