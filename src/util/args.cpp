#include "util/args.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace rtpool::util {

namespace {

bool is_known(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

}  // namespace

std::optional<std::uint64_t> parse_uint64(const std::string& text) {
  const auto first = text.find_first_not_of(" \t");
  if (first != std::string::npos && text[first] == '-') return std::nullopt;
  try {
    std::size_t consumed = 0;
    const std::uint64_t value = std::stoull(text, &consumed);
    if (consumed != text.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

Args::Args(int argc, const char* const argv[], const std::vector<std::string>& known_keys) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0)
      throw std::invalid_argument("Args: unexpected positional argument '" + token + "'");
    token.erase(0, 2);

    std::string key;
    std::string value;
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      key = token.substr(0, eq);
      value = token.substr(eq + 1);
    } else {
      key = token;
      // `--key value` form: consume the next token unless it is another flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    if (!is_known(known_keys, key))
      throw std::invalid_argument("Args: unknown option '--" + key + "'");
    values_[key] = value;
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) != 0; }

std::optional<std::string> Args::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& key, const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: --" + key + " expects an integer, got '" + *v + "'");
  }
}

std::uint64_t Args::get_uint64(const std::string& key, std::uint64_t fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (const std::optional<std::uint64_t> value = parse_uint64(*v)) return *value;
  throw std::invalid_argument("Args: --" + key +
                              " expects a non-negative integer, got '" + *v + "'");
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("Args: --" + key + " expects a number, got '" + *v + "'");
  }
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("Args: --" + key + " expects a boolean, got '" + *v + "'");
}

std::vector<std::int64_t> Args::get_int_list(
    const std::string& key, const std::vector<std::int64_t>& fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    try {
      out.push_back(std::stoll(item));
    } catch (const std::exception&) {
      throw std::invalid_argument("Args: --" + key + " expects integers, got '" + item + "'");
    }
  }
  if (out.empty())
    throw std::invalid_argument("Args: --" + key + " expects a non-empty list");
  return out;
}

}  // namespace rtpool::util
