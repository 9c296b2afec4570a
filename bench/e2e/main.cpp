// bench_e2e — one end-to-end, layer-attributed benchmark of the PUF
// authentication service.
//
//   bench_e2e --workload onboard|serve_n10|serve_n2|auth_store --seed N
//             [--seconds S] [--trace FILE] [--smoke] [--dir DIR]
//   bench_e2e --self-test
//
// One workload runs per process. The last line of standard output is one
// JSON object: true sizes, outcome digest, violations, end-to-end metrics
// and (with --trace) per-layer metrics. The exit code is 0 only when every
// correctness check passed. bench/e2e/run.py builds this binary and drives
// it; see bench/e2e/README.md.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace xpuf::bench_e2e;
  try {
    const xpuf::Cli cli(argc, argv);
    if (cli.has("self-test")) return self_test() == 0 ? 0 : 1;

    Options options;
    options.workload = cli.get("workload", "");
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    options.seconds = cli.get_double("seconds", 10.0);
    options.smoke = cli.has("smoke");
    options.trace_path = cli.get("trace", "");
    options.work_dir = cli.get("dir", "bench_e2e_work");
    if (options.seconds <= 0.0) {
      std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
      return 2;
    }
    std::filesystem::create_directories(options.work_dir);
    xpuf::ThreadPool::set_global_threads(kLanes);

    Result result;
    if (options.workload == "onboard") {
      result = run_onboard(options);
    } else if (options.workload == "serve_n10") {
      result = run_serve(options, 10);
    } else if (options.workload == "serve_n2") {
      result = run_serve(options, 2);
    } else if (options.workload == "auth_store") {
      result = run_auth_store(options);
    } else {
      std::fprintf(stderr,
                   "usage: bench_e2e --workload onboard|serve_n10|serve_n2|auth_store "
                   "--seed N [--seconds S] [--trace FILE] [--smoke] [--dir DIR]\n"
                   "       bench_e2e --self-test\n");
      return 2;
    }
    result.sizes["lanes"] = static_cast<double>(xpuf::ThreadPool::global_threads());
    std::printf("%s\n", result.to_json(options).c_str());
    return result.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
