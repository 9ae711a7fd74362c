// The repository benchmark: one command per workload.
//
//   perfbench --workload <churn_pagerank|serve_pagerank|live_salsa>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Prints every metric by name with its unit, then, as the last line,
// {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check or a harness self-test
// fails.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest_only = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else {
      return Usage();
    }
  }

  const auto failures = perfbench::SelfTest();
  for (const auto& f : failures) std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
  if (!failures.empty()) return 1;
  if (selftest_only) {
    std::printf("harness self-tests passed\n");
    return 0;
  }
  if (!(seconds > 0.0)) return Usage();

  for (const auto& spec : perfbench::Workloads()) {
    if (spec.name != workload) continue;
    std::string trace_path;
    if (trace) {
      std::filesystem::create_directories(".bench_out");
      trace_path = ".bench_out/trace_" + workload + ".json";
    }
    std::printf("workload %s seed %llu seconds %.1f trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
    perfbench::RunResult r = perfbench::RunWorkload(spec, seed, seconds, trace, trace_path);
    r.end_to_end.PrintTable("end-to-end metrics:");
    if (!r.per_layer.empty()) {
      r.per_layer.PrintTable(trace ? "per-layer metrics:" : "tail metrics (not gated):");
    }
    for (const auto& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
    const perfbench::Metrics& out = trace ? r.per_layer : r.end_to_end;
    std::printf("%s\n", out.ResultJson(r.correct, r.attempted, r.failed).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return Usage();
}
