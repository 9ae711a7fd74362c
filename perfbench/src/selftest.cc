// Self-tests of the harness itself, run at the start of every benchmark
// run (and alone with --selftest): a broken schedule or staleness map
// would make every number after it meaningless.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {

namespace {

/// The open-loop schedule must not depend on how fast the sink is: a
/// sink slower than the arrival rate sees exactly the same scheduled
/// instants, and the generator reports the lag as lateness.
void TestOpenLoopIndependence(std::vector<std::string>* failures) {
  fastppr::Rng rng_a(7), rng_b(7);
  const std::vector<uint64_t> sched_a = PoissonSchedule(20'000.0, 0.05, &rng_a);
  const std::vector<uint64_t> sched_b = PoissonSchedule(20'000.0, 0.05, &rng_b);
  if (sched_a != sched_b || sched_a.size() < 500) {
    failures->push_back("Poisson schedule is not a function of its seed");
    return;
  }
  auto drive = [&](uint64_t sink_cost_ns, std::vector<uint64_t>* seen) {
    const uint64_t t0 = NowNs();
    std::vector<double> late =
        RunOpenLoop(sched_a, t0, nullptr, [&](std::size_t, uint64_t due) {
          seen->push_back(due - t0);
          if (sink_cost_ns > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(sink_cost_ns));
          }
        });
    return Percentile(late, 0.99);
  };
  std::vector<uint64_t> fast_seen, slow_seen;
  const double fast_late = drive(0, &fast_seen);
  const double slow_late = drive(200'000, &slow_seen);  // 5k/s sink, 20k/s offered
  if (fast_seen != sched_a || slow_seen != sched_a) {
    failures->push_back("a slow sink saw a different arrival schedule");
  }
  // ~1000 arrivals at 200 us each take ~200 ms against a 50 ms schedule.
  if (!(slow_late > 50e6 && slow_late > 10.0 * fast_late)) {
    failures->push_back("generator lateness did not show a slow sink (p99 " +
                        std::to_string(slow_late / 1e6) + " ms vs " +
                        std::to_string(fast_late / 1e6) + " ms)");
  }
}

/// Epoch e reflects windows 1..e; staleness is the age of window e+1
/// once it has been submitted.
void TestStalenessMap(std::vector<std::string>* failures) {
  WindowClock clock(3);
  clock.MarkSubmitted(1, 100);
  clock.MarkSubmitted(2, 200);
  clock.MarkSubmitted(3, 300);
  struct Case {
    uint64_t epoch, now, staleness, behind;
  };
  const Case cases[] = {
      {0, 50, 0, 0},     // nothing submitted yet
      {0, 250, 150, 2},  // windows 1 and 2 in, neither reflected
      {1, 250, 50, 1},   // window 2 in, not reflected
      {2, 250, 0, 0},    // window 3 not yet submitted
      {2, 300, 0, 1},    // window 3 submitted this instant
      {2, 340, 40, 1},
      {3, 1000, 0, 0},   // everything reflected
      {5, 1000, 0, 0},   // epochs past the last window
  };
  for (const Case& c : cases) {
    if (clock.StalenessNs(c.epoch, c.now) != c.staleness ||
        clock.WindowsBehind(c.epoch, c.now) != c.behind) {
      failures->push_back("staleness map wrong at epoch " + std::to_string(c.epoch) +
                          ", t=" + std::to_string(c.now));
    }
  }
  if (clock.SubmittedBy(99) != 0 || clock.SubmittedBy(100) != 1 ||
      clock.SubmittedBy(1000) != 3) {
    failures->push_back("submitted-window count wrong");
  }
}

}  // namespace

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  TestStalenessMap(&failures);
  TestOpenLoopIndependence(&failures);
  return failures;
}

}  // namespace perfbench
