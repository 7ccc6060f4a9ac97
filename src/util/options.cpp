#include "util/options.hpp"

#include <cstdlib>

namespace rfn {

namespace {

bool is_number(const char* s) {
  char* end = nullptr;
  std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      put(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc &&
               (argv[i + 1][0] != '-' || is_number(argv[i + 1]))) {
      put(arg, argv[++i]);
    } else {
      put(arg, "1");
    }
  }
}

void Options::put(const std::string& key, std::string value) {
  values_[key] = value;
  ordered_.emplace_back(key, std::move(value));
}

std::vector<std::string> Options::get_all(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : ordered_)
    if (k == key) out.push_back(v);
  return out;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : ordered_) out.push_back(k);
  return out;
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Options::get_int(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 0);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second != "0" && it->second != "false" && it->second != "no";
}

}  // namespace rfn
