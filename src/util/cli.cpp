#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace mf::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* want) {
  throw std::invalid_argument("--" + name + "='" + value + "': want " + want);
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    std::string body = arg + 2;
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // boolean switch
    }
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t CliArgs::get_int(const std::string& name, int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* v = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    bad_value(name, it->second, "an integer");
  }
  return n;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* v = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    bad_value(name, it->second, "a number");
  }
  return x;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "true/false/1/0/yes/no");
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::string program = argc > 0 && argv[0] ? argv[0] : "mosaicflow";
    program.erase(0, program.find_last_of('/') + 1);
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    return 2;
  }
}

}  // namespace mf::util
