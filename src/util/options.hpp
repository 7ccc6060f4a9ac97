#pragma once
// Minimal command-line option parsing for examples and bench binaries.
//
// Supports --key=value, --key value, and boolean --flag forms. The token
// after --key is its value unless it starts with '-' and is not a number, so
// `--time-limit -1` binds -1. Unrecognized arguments are collected as
// positionals so google-benchmark flags pass through untouched.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rfn {

class Options {
 public:
  Options() = default;
  Options(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  int64_t get_int(const std::string& key, int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Every value given for `key`, in command-line order. A repeated option
  /// (`--bad a --bad b`) accumulates here; get() returns the last value.
  std::vector<std::string> get_all(const std::string& key) const;

  /// Every --key given, in command-line order (repeats included).
  std::vector<std::string> keys() const;

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  void put(const std::string& key, std::string value);

  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positionals_;
};

}  // namespace rfn
