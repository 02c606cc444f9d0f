// perfbench: one workload per invocation, driven through the library's
// public API. Prints human-readable progress, then the raw record as one
// JSON object on the last stdout line (parsed by run.py).
//
//   perfbench --workload solve|dist_solve|train|serve --seed N
//             --seconds S --trace 0|1 [--trace-file PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "ad/kernels.hpp"
#include "bench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload solve|dist_solve|"
               "train|serve --seed N --seconds S --trace 0|1 [--trace-file P]\n",
               why);
  std::exit(2);
}

double parse_number(const char* flag, const char* v) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0') usage((std::string("bad value for ") + flag).c_str());
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage((std::string("missing value for ") + flag).c_str());
    const char* v = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      opts.workload = v;
    } else if (!std::strcmp(flag, "--seed")) {
      const double s = parse_number(flag, v);
      if (s < 0 || s != static_cast<double>(static_cast<std::uint64_t>(s))) {
        usage("--seed must be a non-negative integer");
      }
      opts.seed = static_cast<std::uint64_t>(s);
    } else if (!std::strcmp(flag, "--seconds")) {
      opts.seconds = parse_number(flag, v);
      if (!(opts.seconds > 0)) usage("--seconds must be positive");
    } else if (!std::strcmp(flag, "--trace")) {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) usage("--trace is 0 or 1");
      opts.trace = v[0] == '1';
    } else if (!std::strcmp(flag, "--trace-file")) {
      opts.trace_path = v;
    } else {
      usage((std::string("unknown flag ") + flag).c_str());
    }
  }

  // Kernels run on one thread per worker: the multi-rank workloads pin
  // each rank thread serial themselves, so no workload keeps more than
  // two threads busy.
  mf::ad::kernels::set_num_threads(1);
  perfbench::tracer().set_enabled(opts.trace);

  perfbench::Record rec;
  try {
    if (opts.workload == "solve") {
      perfbench::run_solve(opts, rec);
    } else if (opts.workload == "dist_solve") {
      perfbench::run_dist_solve(opts, rec);
    } else if (opts.workload == "train") {
      perfbench::run_train(opts, rec);
    } else if (opts.workload == "serve") {
      perfbench::run_serve(opts, rec);
    } else {
      usage(("unknown workload '" + opts.workload + "'").c_str());
    }
    if (opts.trace && !opts.trace_path.empty()) {
      perfbench::tracer().write_chrome(opts.trace_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s\n", rec.to_json().c_str());
  return 0;
}
