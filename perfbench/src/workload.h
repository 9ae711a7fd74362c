#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// One benchmark run: set up the system from the generated inputs, drive
// it with a writer thread and a reader thread, check its outputs, and
// derive the metrics. The library is reached only through its public
// calls — ShardedEngine, QueryService, ServingTier and, for the layer
// probes, the flat engines and SocialStore.

#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"

namespace perfbench {

enum class WriterMode {
  kClosedLoop,  ///< next window submitted when Ingest() returns
  kOpenLoop,    ///< windows submitted on a fixed schedule
};

struct WorkloadSpec {
  std::string name;
  bool salsa = false;
  /// Share of the randomly ordered edges bulk-loaded in set-up.
  double prefix_fraction = 0.6;
  WriterMode writer = WriterMode::kClosedLoop;
  /// Open-loop writer: fixed event rate (windows of kWindowEvents).
  double writer_events_per_s = 0.0;
  /// Reader: open-loop Poisson rates (requests/s), one rung each. The
  /// first rung is the named one the latency metrics come from; it gets
  /// half the run when there are several. Behind a closed-loop writer
  /// the reader stops when the writer is done.
  std::vector<double> read_rates;
  bool zipf_seeds = false;  ///< Zipf(1.1) personalized seeds, else uniform
  double share_score = 0.3;
  double share_topk = 0.1;  ///< the rest is PersonalizedTopK
  double latency_limit_ms = 50.0;
};

/// The three named workloads.
std::vector<WorkloadSpec> Workloads();

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
};

/// Runs one workload. `trace` records spans and runs the layer probes.
RunResult RunWorkload(const WorkloadSpec& spec, uint64_t seed,
                      double run_seconds, bool trace,
                      const std::string& trace_path);

/// Harness self-tests (open-loop schedule independence, staleness map).
/// Returns the failures; empty on success.
std::vector<std::string> SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
