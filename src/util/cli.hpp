// Minimal command-line flag parsing for examples and benchmark binaries:
// --name value or --name=value, plus boolean switches. A typed getter
// throws std::invalid_argument naming the flag and its value when the
// value does not parse in full (`--m abc`, `--iters 8x`, `--smoke maybe`).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace mf::util {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  int64_t get_int(const std::string& name, int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mf::util
