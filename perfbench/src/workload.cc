#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <type_traits>

#include "fastppr/baseline/power_iteration.h"
#include "fastppr/baseline/salsa_exact.h"
#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/incremental_salsa.h"
#include "fastppr/core/theory.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/csr_graph.h"
#include "fastppr/obs/phase_tracer.h"
#include "fastppr/serve/serving_tier.h"
#include "fastppr/store/social_store.h"

namespace perfbench {

using fastppr::DiGraph;
using fastppr::EdgeEvent;
using fastppr::MonteCarloOptions;
using fastppr::NodeId;
using fastppr::Rng;
using fastppr::Status;
using fastppr::WalkUpdateStats;
namespace serve = fastppr::serve;

namespace {

// Everything not listed here runs at the program's defaults.
constexpr std::size_t kShards = 4;
// Two repair lanes leave cores to the two tier workers and the engine's
// pipeline and publisher threads; with four, closed-loop churn applied
// fewer events per second on a 4-vCPU box (about 38k against 44k).
constexpr std::size_t kRepairThreads = 2;
constexpr std::size_t kTierWorkers = 2;
constexpr std::size_t kSetupRepeats = 3;
// End-to-end percentiles: median over this many time slices of the rung.
constexpr std::size_t kSlices = 8;
constexpr std::size_t kMinPerSlice = 50;
// Closed-loop applied rate: median over this many equal runs of windows.
constexpr std::size_t kRateSegments = 5;
// Personalized requests: k results, walk length from the paper's Eq. 4
// at the generator's in-degree exponent, c = 5 visits per top-k node.
constexpr std::size_t kTopK = 10;
constexpr double kAlpha = 0.76;
constexpr double kVisitsPerTopNode = 5.0;
// Global estimates must match the exact baselines within this L1
// distance on the final graph (Monte Carlo error at R = 10 is ~0.1).
constexpr double kPageRankL1Tolerance = 0.25;
constexpr double kSalsaL1Tolerance = 0.25;

/// Mixes the workload name into its read-schedule seed, so workloads
/// sharing a seed do not share a schedule.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

uint64_t WalkLength(std::size_t n) {
  return static_cast<uint64_t>(
      std::llround(fastppr::WalkLengthForTopK(kTopK, n, kAlpha, kVisitsPerTopNode)));
}

/// One drawn request of the read mix.
struct Query {
  serve::QueryClass cls = serve::QueryClass::kScore;
  NodeId node = 0;
  uint64_t rng_seed = 0;
};

/// What came back for one request (written once by the tier's callback).
struct Answer {
  serve::QueryClass cls = serve::QueryClass::kScore;
  bool ok = false;
  bool full = false;  ///< OK at full fidelity
  bool shed = false;
  bool expired = false;
  bool cache_hit = false;
  bool walk_answer_ok = true;  ///< single-epoch, k results
  uint64_t due_ns = 0;
  uint64_t end_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t service_ns = 0;
  uint64_t staleness_ns = 0;
  uint64_t windows_behind = 0;
  double latency_ms() const { return NsToMs(static_cast<double>(end_ns - due_ns)); }
};

struct Rung {
  std::size_t index = 0;
  double rate = 0.0;
  std::vector<uint64_t> offsets;
  std::vector<Query> queries;
  std::vector<Answer> answers;
  std::vector<double> late_ns;
  std::vector<double> depth_first, depth_last;  ///< queue-depth samples
  std::size_t submitted = 0;
  uint64_t start_ns = 0, end_ns = 0;
  std::atomic<std::size_t> resolved{0};
  serve::ResultCache::Stats cache_before, cache_after;
  uint64_t batches_before = 0, batches_after = 0;
  uint64_t batched_before = 0, batched_after = 0;
};

/// Per-rung read statistics.
struct RungStats {
  std::size_t attempted = 0;
  std::vector<Timed> lat_ms[serve::kNumQueryClasses];  ///< OK answers, by due time
  double full_share = 0.0;
  bool sustainable = false;
  double goodput_qps = 0.0;
};

std::vector<Timed> ClassLatencies(const Rung& r, serve::QueryClass cls) {
  std::vector<Timed> out;
  for (std::size_t i = 0; i < r.submitted; ++i) {
    const Answer& a = r.answers[i];
    if (a.cls == cls && a.ok) out.push_back({a.due_ns, a.latency_ms()});
  }
  return out;
}

RungStats Summarize(const Rung& r, double limit_ms) {
  RungStats s;
  s.attempted = r.submitted;
  std::size_t full = 0, ok = 0;
  for (std::size_t i = 0; i < r.submitted; ++i) {
    const Answer& a = r.answers[i];
    ok += a.ok;
    if (a.full && a.latency_ms() <= limit_ms) ++full;
  }
  for (std::size_t c = 0; c < serve::kNumQueryClasses; ++c) {
    s.lat_ms[c] = ClassLatencies(r, static_cast<serve::QueryClass>(c));
  }
  s.full_share = s.attempted == 0 ? 0.0
                                  : static_cast<double>(full) / static_cast<double>(s.attempted);
  const double secs = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
  s.goodput_qps = secs > 0.0 ? static_cast<double>(ok) / secs : 0.0;
  bool p99_ok = true;
  for (const auto& lat : s.lat_ms) {
    if (!lat.empty() && Percentile(Values(lat), 0.99) > limit_ms) p99_ok = false;
  }
  // The queue grows when the depth late in the rung is well above the
  // depth early in it.
  const double early = Mean(r.depth_first), late = Mean(r.depth_last);
  const bool queue_steady = late <= std::max(4.0, 2.0 * early);
  s.sustainable = s.attempted > 0 && p99_ok && s.full_share >= 0.99 && queue_steady;
  return s;
}

/// Theorem 4 insert bound plus Proposition 5 deletion bound (scaled by
/// `factor`; 16 for SALSA's Theorem 6) for the events of windows
/// first..last.
double RepairStepBound(const Inputs& in, std::size_t first, std::size_t last, double factor) {
  const double nr = static_cast<double>(in.num_nodes) * 10.0;  // R = default 10
  const double eps = MonteCarloOptions{}.epsilon;
  const double per = factor * nr / (eps * eps);
  std::size_t arrivals = in.prefix.size();
  std::size_t edges = in.prefix.size();
  double bound = 0.0;
  const std::size_t begin = (first - 1) * kWindowEvents;
  const std::size_t end = std::min(in.events.size(), last * kWindowEvents);
  for (std::size_t i = 0; i < end; ++i) {
    const bool counted = i >= begin;
    if (in.events[i].kind == EdgeEvent::Kind::kInsert) {
      ++arrivals;
      ++edges;
      if (counted) bound += per / static_cast<double>(arrivals);  // H_t1 - H_t0 termwise
    } else {
      if (counted) bound += per / static_cast<double>(edges);
      --edges;
    }
  }
  return bound;
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

template <typename Engine>
class Runner {
  static constexpr bool kSalsa = std::is_same_v<Engine, fastppr::IncrementalSalsa>;
  using Sharded = fastppr::ShardedEngine<Engine>;
  using Service = fastppr::QueryService<Engine>;
  using Tier = serve::ServingTier<Engine>;

 public:
  Runner(const WorkloadSpec& spec, uint64_t seed, double run_seconds, bool trace)
      : spec_(spec), seed_(seed), run_seconds_(run_seconds), tracer_(trace) {}

  RunResult Run(const std::string& trace_path) {
    const uint64_t t_start = NowNs();
    const Inputs in = GenerateInputs(spec_.prefix_fraction, spec_.salsa, seed_);
    const DiGraph prefix_graph = in.PrefixGraph();
    walk_length_ = WalkLength(in.num_nodes);
    const uint64_t t_generated = NowNs();

    // Setup, several times; the last system is the one measured.
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
      tier_.reset();
      service_.reset();
      engine_.reset();
      const uint64_t t0 = NowNs();
      Setup(prefix_graph, in);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    setup_end_ns_ = NowNs();
    windows_submitted_ = 1;
    Expect(service_->published_epoch() == 1, "setup did not end at epoch 1");

    DrawReads(in);
    const WalkUpdateStats stats0 = engine_->lifetime_stats();
    const auto pub0 = service_->publish_volume();
    busy_before_ = engine_->phase_tracer()->ComputeTotals();
    Measure(in);
    const WalkUpdateStats stats1 = engine_->lifetime_stats();
    const auto pub1 = service_->publish_volume();
    busy_after_ = engine_->phase_tracer()->ComputeTotals();

    const uint64_t t_measured = NowNs();
    Check(in);
    const uint64_t t_checked = NowNs();
    result_.end_to_end.Set("setup_s", Median(setup_s), "s");
    EndToEnd();
    if (tracer_.enabled()) {
      PerLayer(in, prefix_graph, stats0, stats1, pub0, pub1);
      if (!trace_path.empty() && !tracer_.WriteChromeTrace(trace_path)) {
        std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
      }
    }
    const auto secs = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a) / 1e9; };
    std::printf("phase seconds: generate %.1f, set-up x%zu %.1f, measure %.1f, check %.1f, "
                "layer probes %.1f\n",
                secs(t_start, t_generated), kSetupRepeats, secs(t_generated, setup_end_ns_),
                secs(setup_end_ns_, t_measured), secs(t_measured, t_checked),
                secs(t_checked, NowNs()));
    result_.correct = result_.failures.empty();
    tier_->Shutdown();
    return std::move(result_);
  }

 private:
  void Expect(bool cond, const std::string& what) {
    if (!cond) result_.failures.push_back(what);
  }

  /// Bulk load (the engine's bootstrap from the prefix graph), service
  /// and tier construction, then window 1 of the stream until Quiesce():
  /// the first window after a bootstrap pays one-time costs several
  /// times a steady window's, and that belongs to set-up, not to the
  /// measured phase.
  void Setup(const DiGraph& prefix_graph, const Inputs& in) {
    MonteCarloOptions mo;
    mo.seed = seed_;
    fastppr::ShardedOptions so;
    so.num_shards = kShards;
    so.num_threads = kRepairThreads;
    tracer_.Time("setup.engine", [&] {
      engine_ = std::make_unique<Sharded>(prefix_graph, mo, so);
    });
    tracer_.Time("setup.service", [&] {
      service_ = std::make_unique<Service>(engine_.get());
      service_->Quiesce();
    });
    serve::ServingTierOptions to;
    to.num_workers = kTierWorkers;
    tracer_.Time("setup.tier", [&] { tier_ = std::make_unique<Tier>(service_.get(), to); });
    tracer_.Time("setup.warmup", [&] {
      Expect(service_->Ingest(in.Window(1)).ok(), "warm-up window failed");
      service_->Quiesce();
    });
  }

  /// Draws every rung's schedule and requests before anything runs.
  void DrawReads(const Inputs& in) {
    Rng rng(seed_ ^ Fnv1a(spec_.name));
    const std::size_t n = spec_.read_rates.size();
    ZipfSampler zipf(in.seeds.size(), 1.1);
    rungs_.clear();
    for (double rate : spec_.read_rates) {
      auto r = std::make_unique<Rung>();
      r->index = rungs_.size();
      r->rate = rate;
      const double share = n == 1 ? 1.0 : r->index == 0 ? 0.5 : 0.5 / static_cast<double>(n - 1);
      r->offsets = PoissonSchedule(rate, share * run_seconds_, &rng);
      r->queries.resize(r->offsets.size());
      for (Query& q : r->queries) {
        const double u = rng.NextDouble();
        q.cls = u < spec_.share_score ? serve::QueryClass::kScore
                : u < spec_.share_score + spec_.share_topk ? serve::QueryClass::kTopK
                                                           : serve::QueryClass::kPersonalized;
        const std::size_t rank = spec_.zipf_seeds && q.cls == serve::QueryClass::kPersonalized
                                     ? zipf.Draw(&rng)
                                     : rng.UniformIndex(in.seeds.size());
        q.node = in.seeds[rank];
        q.rng_seed = rng.NextUint64();
      }
      r->answers.resize(r->offsets.size());
      rungs_.push_back(std::move(r));
    }
  }

  // ---- the measured phase -------------------------------------------

  /// Streams windows 2.. (window 1 was set-up's) beside the readers.
  void Measure(const Inputs& in) {
    const double read_s = run_seconds_;
    std::size_t last = in.num_windows();
    uint64_t period_ns = 0;
    if (spec_.writer == WriterMode::kOpenLoop) {
      period_ns = static_cast<uint64_t>(1e9 * static_cast<double>(kWindowEvents) /
                                        spec_.writer_events_per_s);
      last = std::min<std::size_t>(last, 1 + static_cast<std::size_t>(read_s * 1e9 / period_ns));
    }
    clock_ = std::make_unique<WindowClock>(last);
    clock_->MarkSubmitted(1, setup_end_ns_);
    std::atomic<bool> writer_done{false};
    const uint64_t t0 = NowNs() + 20'000'000;  // both threads start together

    std::thread writer([&] {
      while (NowNs() < t0) std::this_thread::sleep_for(std::chrono::microseconds(200));
      cpu_start_ = ProcessCpuNs();
      if (spec_.writer == WriterMode::kClosedLoop) {
        const uint64_t cap = t0 + static_cast<uint64_t>(read_s * 1e9);
        for (std::size_t w = 2; w <= last && NowNs() < cap; ++w) {
          clock_->MarkSubmitted(w, NowNs());
          Submit(in, w);
        }
      } else {
        const std::vector<uint64_t> offsets = PeriodicSchedule(last - 1, period_ns);
        for (std::size_t w = 2; w <= last; ++w) {
          clock_->MarkSubmitted(w, t0 + offsets[w - 2]);
        }
        RunOpenLoop(offsets, t0, nullptr,
                    [&](std::size_t i, uint64_t) { Submit(in, i + 2); });
      }
      tracer_.Time("engine.quiesce", [&] { service_->Quiesce(); });
      write_end_ns_ = NowNs();
      cpu_end_ = ProcessCpuNs();
      writer_done.store(true, std::memory_order_release);
    });

    std::thread reader([&] {
      uint64_t start = t0;
      for (auto& rung : rungs_) {
        ReadRung(rung.get(), start,
                 spec_.writer == WriterMode::kClosedLoop ? &writer_done : nullptr);
        start = NowNs();
      }
    });
    writer.join();
    reader.join();
    write_start_ns_ = t0;
  }

  void Submit(const Inputs& in, std::size_t w) {
    const uint64_t backlog = (w - 1) - std::min<uint64_t>(w - 1, service_->published_epoch());
    backlog_max_ = std::max(backlog_max_, backlog);
    const auto window = in.Window(w);
    const Status s = tracer_.Time("engine.ingest", [&] { return service_->Ingest(window); }, 0, w);
    if (!s.ok()) ++ingest_failures_;
    windows_submitted_ = w;
    events_submitted_ += window.size();
    window_sizes_.resize(w + 1);
    window_sizes_[w] = window.size();
  }

  void ReadRung(Rung* r, uint64_t start, const std::atomic<bool>* stop) {
    r->start_ns = start;
    r->cache_before = tier_->cache_stats();
    r->batches_before = tier_->batches_executed();
    r->batched_before = tier_->batched_requests();
    uint64_t next_sample = start;
    const uint64_t rung_ns = r->offsets.empty() ? 0 : r->offsets.back();
    r->late_ns = RunOpenLoop(r->offsets, start, stop, [&](std::size_t i, uint64_t due) {
      if (due >= next_sample) {
        const double depth = static_cast<double>(
            tier_->queue_depth(serve::QueryClass::kTopK) +
            tier_->queue_depth(serve::QueryClass::kScore) +
            tier_->queue_depth(serve::QueryClass::kPersonalized));
        if (due - start < rung_ns / 4) r->depth_first.push_back(depth);
        if (due - start >= 3 * rung_ns / 4) r->depth_last.push_back(depth);
        next_sample = due + 10'000'000;
      }
      SubmitRead(r, i, due);
    });
    r->submitted = r->late_ns.size();
    while (r->resolved.load(std::memory_order_acquire) < r->submitted) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    r->end_ns = NowNs();
    r->cache_after = tier_->cache_stats();
    r->batches_after = tier_->batches_executed();
    r->batched_after = tier_->batched_requests();
  }

  void SubmitRead(Rung* r, std::size_t i, uint64_t due) {
    const Query& q = r->queries[i];
    serve::Request req;
    req.cls = q.cls;
    req.node = q.node;
    req.k = kTopK;
    req.walk_length = walk_length_;
    req.rng_seed = q.rng_seed;
    req.arrival_ns = due;
    req.deadline = serve::Deadline::AtNanos(
        due + static_cast<uint64_t>(spec_.latency_limit_ms * 1e6));
    const uint64_t request_id = (static_cast<uint64_t>(r->index) << 32) | i;
    req.on_done = [this, r, i, due, request_id](const serve::Response& resp) {
      Answer& a = r->answers[i];
      a.end_ns = NowNs();
      a.cls = r->queries[i].cls;
      a.due_ns = due;
      a.ok = resp.status.ok();
      a.full = a.ok && !resp.degraded();
      a.shed = resp.status.IsResourceExhausted();
      a.expired = resp.status.IsDeadlineExceeded();
      a.cache_hit = resp.cache_hit;
      a.queue_ns = resp.queue_ns;
      a.service_ns = resp.service_ns;
      if (a.ok) {
        a.staleness_ns = clock_->StalenessNs(resp.snapshot.min_epoch, a.end_ns);
        a.windows_behind = clock_->WindowsBehind(resp.snapshot.min_epoch, a.end_ns);
        if (a.cls == serve::QueryClass::kPersonalized &&
            resp.degrade != serve::DegradeLevel::kStaleFallback) {
          a.walk_answer_ok = resp.snapshot.min_epoch == resp.snapshot.max_epoch &&
                             resp.ranked.size() == kTopK;
        }
      }
      if (tracer_.enabled()) {
        const uint64_t root = tracer_.Record("serve.request", a.due_ns, a.end_ns, 0, request_id);
        const uint64_t svc_start = a.end_ns - std::min(a.end_ns - a.due_ns, a.service_ns);
        const uint64_t q_start = svc_start - std::min(svc_start - a.due_ns, a.queue_ns);
        tracer_.Record("serve.queue", q_start, svc_start, root, request_id);
        tracer_.Record("serve.service", svc_start, a.end_ns, root, request_id);
      }
      r->resolved.fetch_add(1, std::memory_order_release);
    };
    tracer_.Time("serve.submit", [&] { tier_->Submit(std::move(req)); }, 0, request_id);
  }

  // ---- output checks ------------------------------------------------

  void Check(const Inputs& in) {
    Expect(ingest_failures_ == 0, "an ingest window failed");
    Expect(service_->published_epoch() == windows_submitted_,
           "published epoch != windows submitted after Quiesce");
    const auto outcomes = tier_->outcomes();
    Expect(outcomes.resolved() == tier_->submitted(), "tier resolved != submitted");
    Expect(outcomes.failed == 0, "tier reported failed executions");
    std::size_t bad_walks = 0;
    for (const auto& r : rungs_) {
      for (std::size_t i = 0; i < r->submitted; ++i) bad_walks += !r->answers[i].walk_answer_ok;
    }
    Expect(bad_walks == 0, std::to_string(bad_walks) +
                               " personalized answers not single-epoch with k results");

    engine_->CheckConsistency();  // aborts the run on a violated invariant

    DiGraph final_graph = in.PrefixGraph();
    const std::size_t n_events =
        std::min(in.events.size(), windows_submitted_ * kWindowEvents);
    for (std::size_t i = 0; i < n_events; ++i) {
      const auto& e = in.events[i];
      const Status s = e.kind == EdgeEvent::Kind::kInsert
                           ? final_graph.AddEdge(e.edge.src, e.edge.dst)
                           : final_graph.RemoveEdge(e.edge.src, e.edge.dst);
      Expect(s.ok(), "reference replay rejected an event");
    }
    Expect(final_graph.num_edges() == engine_->num_edges(),
           "engine edge count differs from the reference graph");
    const auto csr = fastppr::CsrGraph::FromDiGraph(final_graph);
    std::vector<double> exact;
    if constexpr (kSalsa) {
      exact = fastppr::SalsaExact(csr, {}).authority;
    } else {
      exact = fastppr::PageRankPowerIteration(csr, {}).scores;
    }
    const std::vector<int64_t> counts = engine_->MergedRankingCounts();
    const double total = static_cast<double>(engine_->MergedRankingTotal());
    std::vector<double> est(counts.size());
    for (std::size_t v = 0; v < counts.size(); ++v) est[v] = static_cast<double>(counts[v]) / total;
    estimate_l1_ = L1(est, exact);
    const double tol = kSalsa ? kSalsaL1Tolerance : kPageRankL1Tolerance;
    Expect(estimate_l1_ <= tol, "global estimate L1 " + std::to_string(estimate_l1_) +
                                    " vs exact baseline exceeds " + std::to_string(tol));
  }

  // ---- metrics ------------------------------------------------------

  /// The end-to-end metrics, plus the applied rate and the tail metrics
  /// of the same rung, which proved too unsteady on a shared box to gate
  /// on (reported with the per-layer metrics).
  void EndToEnd() {
    Metrics& m = result_.end_to_end;
    Metrics& tail = result_.per_layer;
    const Rung& named = *rungs_.front();
    const RungStats s = Summarize(named, spec_.latency_limit_ms);
    // Every thread of the process over the writer's phase, readers and
    // the harness included, per event it applied.
    m.Set("cpu_us_per_event",
          static_cast<double>(cpu_end_ - cpu_start_) / 1e3 /
              static_cast<double>(std::max<std::size_t>(1, events_submitted_)),
          "us");
    tail.Set("applied_events_per_s", AppliedRate(), "1/s");
    const std::vector<Timed> stale_ms = Staleness(named);
    auto sliced = [](const std::vector<Timed>& v, double q) {
      return SlicedPercentile(v, q, kSlices, kMinPerSlice);
    };
    const auto& pers = s.lat_ms[static_cast<std::size_t>(serve::QueryClass::kPersonalized)];
    const auto& topk = s.lat_ms[static_cast<std::size_t>(serve::QueryClass::kTopK)];
    const auto& score = s.lat_ms[static_cast<std::size_t>(serve::QueryClass::kScore)];
    m.Set("full_answer_share", s.full_share, "share");
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    tail.Set("staleness_p50_ms", sliced(stale_ms, 0.5), "ms");
    tail.Set("staleness_p99_ms", sliced(stale_ms, 0.99), "ms");
    tail.Set("personalized_p50_ms", sliced(pers, 0.5), "ms");
    tail.Set("personalized_p99_ms", sliced(pers, 0.99), "ms");
    tail.Set("topk_p50_ms", sliced(topk, 0.5), "ms");
    tail.Set("topk_p99_ms", sliced(topk, 0.99), "ms");
    tail.Set("score_p99_ms", sliced(score, 0.99), "ms");

    std::printf("samples at the named rung (%.0f req/s): personalized %zu, topk %zu, score %zu, "
                "staleness %zu; windows %zu, events %zu\n",
                named.rate, pers.size(), topk.size(), score.size(),
                stale_ms.size(), windows_submitted_, events_submitted_);
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      const RungStats ri = Summarize(*rungs_[i], spec_.latency_limit_ms);
      std::printf("rung %zu: offered %.0f/s attempted %zu goodput %.0f/s full %.4f "
                  "p99 pers %.2f topk %.2f score %.2f ms sustainable %d\n",
                  i, rungs_[i]->rate, ri.attempted, ri.goodput_qps, ri.full_share,
                  Percentile(Values(ri.lat_ms[2]), 0.99), Percentile(Values(ri.lat_ms[0]), 0.99),
                  Percentile(Values(ri.lat_ms[1]), 0.99), ri.sustainable);
      result_.attempted += ri.attempted;
    }
    result_.attempted += windows_submitted_;
    result_.failed = ingest_failures_ + tier_->outcomes().failed;
    std::printf("global estimate L1 vs exact: %.4f\n", estimate_l1_);
  }

  /// Applied events per second. Open loop: all events over the phase
  /// (the writer's pace is fixed, so this shows whether the engine kept
  /// up). Closed loop: the windows split into equal segments, each timed
  /// from its first submission to the next segment's (the last one to
  /// Quiesce()'s return), and the median segment rate reported.
  double AppliedRate() const {
    const auto rate = [](double events, uint64_t from, uint64_t to) {
      return events / (static_cast<double>(to - from) / 1e9);
    };
    const std::size_t measured = windows_submitted_ - 1;  // windows 2..last
    if (spec_.writer == WriterMode::kOpenLoop || measured < kRateSegments) {
      return rate(static_cast<double>(events_submitted_), write_start_ns_, write_end_ns_);
    }
    std::vector<double> rates;
    for (std::size_t k = 0; k < kRateSegments; ++k) {
      const std::size_t first = 2 + k * measured / kRateSegments;
      const std::size_t next = 2 + (k + 1) * measured / kRateSegments;
      double events = 0.0;
      for (std::size_t w = first; w < next; ++w) events += static_cast<double>(window_sizes_[w]);
      const uint64_t end = next > windows_submitted_ ? write_end_ns_ : clock_->submitted_at(next);
      rates.push_back(rate(events, clock_->submitted_at(first), end));
    }
    std::printf("applied segment rates (events/s):");
    for (double r : rates) std::printf(" %.0f", r);
    std::printf("\n");
    return Median(rates);
  }

  /// Staleness of every OK answer, by response time.
  std::vector<Timed> Staleness(const Rung& r) const {
    std::vector<Timed> out;
    for (std::size_t i = 0; i < r.submitted; ++i) {
      const Answer& a = r.answers[i];
      if (a.ok) out.push_back({a.end_ns, NsToMs(static_cast<double>(a.staleness_ns))});
    }
    return out;
  }

  void PerLayer(const Inputs& in, const DiGraph& prefix_graph, const WalkUpdateStats& s0,
                const WalkUpdateStats& s1,
                const fastppr::snap::SharedPublishStats::Snapshot& p0,
                const fastppr::snap::SharedPublishStats::Snapshot& p1);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double run_seconds_;
  Tracer tracer_;
  uint64_t walk_length_ = 0;
  std::unique_ptr<Sharded> engine_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<Tier> tier_;
  std::vector<std::unique_ptr<Rung>> rungs_;
  std::unique_ptr<WindowClock> clock_;
  uint64_t setup_end_ns_ = 0;
  std::size_t windows_submitted_ = 0;  ///< last window submitted (1 = set-up's)
  std::size_t events_submitted_ = 0;
  std::vector<std::size_t> window_sizes_;  ///< events per submitted window
  uint64_t ingest_failures_ = 0;
  uint64_t backlog_max_ = 0;
  uint64_t write_start_ns_ = 0, write_end_ns_ = 0;
  /// Process CPU time when the writer started and when its Quiesce()
  /// returned.
  uint64_t cpu_start_ = 0, cpu_end_ = 0;
  double estimate_l1_ = 0.0;
  fastppr::obs::PhaseTracer::Totals busy_before_, busy_after_;
  RunResult result_;
};

template <typename Engine>
void Runner<Engine>::PerLayer(const Inputs& in, const DiGraph& prefix_graph,
                              const WalkUpdateStats& s0, const WalkUpdateStats& s1,
                              const fastppr::snap::SharedPublishStats::Snapshot& p0,
                              const fastppr::snap::SharedPublishStats::Snapshot& p1) {
  Metrics& m = result_.per_layer;
  const std::vector<Span> spans = tracer_.Collect();
  const std::size_t span_count = spans.size();
  const double events = static_cast<double>(std::max<std::size_t>(1, events_submitted_));
  const double windows = static_cast<double>(std::max<std::size_t>(1, windows_submitted_ - 1));

  // graph: standalone SocialStore replay of the applied windows.
  fastppr::SocialStore social(in.num_nodes);
  social.ImportGraph(prefix_graph);
  uint64_t replay_ns = 0;
  for (std::size_t w = 1; w <= windows_submitted_; ++w) {
    const uint64_t t0 = NowNs();
    for (const EdgeEvent& e : in.Window(w)) {
      const Status st = e.kind == EdgeEvent::Kind::kInsert
                            ? social.AddEdge(e.edge.src, e.edge.dst)
                            : social.RemoveEdge(e.edge.src, e.edge.dst);
      Expect(st.ok(), "graph replay rejected an event");
    }
    const uint64_t t1 = NowNs();
    if (w == 1) continue;  // set-up's window
    tracer_.Record("graph.mutate", t0, t1, 0, w);
    replay_ns += t1 - t0;
  }
  const double mutate_ns = static_cast<double>(replay_ns) / events;
  m.Set("graph.mutate_ns_per_event", mutate_ns, "ns");
  m.Set("graph.bytes_per_edge",
        static_cast<double>(engine_->GraphMemoryBytes()) /
            static_cast<double>(std::max<std::size_t>(1, engine_->num_edges())),
        "B");

  // store (repair): exact counts over the measured events.
  const double steps = static_cast<double>(s1.walk_steps - s0.walk_steps);
  const double segs = static_cast<double>(s1.segments_updated - s0.segments_updated);
  const double scanned = static_cast<double>(s1.entries_scanned - s0.entries_scanned);
  const double bound = RepairStepBound(in, 2, windows_submitted_, kSalsa ? 16.0 : 1.0);
  const std::string p = kSalsa ? "store.salsa_" : "store.";
  const std::string other = kSalsa ? "store." : "store.salsa_";
  m.Set(p + "walk_steps_per_event", steps / events, "count");
  m.Set(p + "segments_updated_per_event", segs / events, "count");
  m.Set(p + "entries_scanned_per_event", scanned / events, "count");
  m.Set(p + (kSalsa ? "steps_vs_theorem6" : "steps_vs_theorem4"), steps / bound, "ratio");
  m.Set(other + "walk_steps_per_event", 0.0, "count");
  m.Set(other + "segments_updated_per_event", 0.0, "count");
  m.Set(other + "entries_scanned_per_event", 0.0, "count");
  m.Set(other + (kSalsa ? "steps_vs_theorem4" : "steps_vs_theorem6"), 0.0, "ratio");

  // core: the flat single-threaded engine on the same windows (the
  // closed-loop workload only — it is the baseline for applied rate).
  double flat_rate = 0.0, repair_ns_per_step = 0.0;
  if (spec_.writer == WriterMode::kClosedLoop) {
    MonteCarloOptions mo;
    mo.seed = seed_;
    Engine flat(prefix_graph, mo);
    Expect(flat.ApplyEvents(in.Window(1)).ok(), "flat engine rejected a window");
    const WalkUpdateStats f0 = flat.lifetime_stats();
    uint64_t flat_ns = 0;
    for (std::size_t w = 2; w <= windows_submitted_; ++w) {
      const uint64_t t0 = NowNs();
      const Status st = flat.ApplyEvents(in.Window(w));
      const uint64_t t1 = NowNs();
      Expect(st.ok(), "flat engine rejected a window");
      tracer_.Record("core.flat_apply", t0, t1, 0, w);
      flat_ns += t1 - t0;
    }
    const double flat_steps = static_cast<double>(flat.lifetime_stats().walk_steps - f0.walk_steps);
    flat_rate = events / (static_cast<double>(flat_ns) / 1e9);
    repair_ns_per_step = (static_cast<double>(flat_ns) - static_cast<double>(replay_ns)) /
                         std::max(1.0, flat_steps);
  }
  m.Set("store.repair_ns_per_step", repair_ns_per_step, "ns");
  m.Set("core.flat_events_per_s", flat_rate, "1/s");

  // store (publish).
  const double pub_delta = static_cast<double>(p1.publishes_delta - p0.publishes_delta);
  const double pub_full = static_cast<double>(p1.publishes_full - p0.publishes_full);
  const double delta_bytes = static_cast<double>(p1.publish_delta_bytes() - p0.publish_delta_bytes());
  const double presented = static_cast<double>(p1.presented_bytes - p0.presented_bytes);
  m.Set("store.publishes_delta_per_window", pub_delta / windows, "count");
  m.Set("store.publishes_full_per_window", pub_full / windows, "count");
  m.Set("store.publish_bytes_per_delta_byte", presented > 0 ? delta_bytes / presented : 0.0,
        "ratio");
  const auto frozen = service_->FrozenStats();
  m.Set("store.frozen_bytes", static_cast<double>(frozen.segment_bytes + frozen.adjacency_bytes),
        "B");

  // core: direct personalized calls on the final corpus. Fetch counts
  // from PersonalizedTopK's WalkStats; time per step from single-item
  // PersonalizedTopKInto batches, the dense path the tier's workers run.
  Rng rng(seed_ ^ 0xc0de);
  constexpr std::size_t kDirect = 300;
  uint64_t walk_ns = 0, walk_len = 0, fetches = 0;
  std::vector<fastppr::ScoredNode> ranked;
  typename Service::PersonalizedScratch scratch;
  for (std::size_t i = 0; i < kDirect; ++i) {
    const NodeId seed = in.seeds[rng.UniformIndex(in.seeds.size())];
    const uint64_t rng_seed = rng.NextUint64();
    typename Service::WalkStats ws;
    Expect(service_->PersonalizedTopK(seed, kTopK, walk_length_, true, rng_seed, &ranked, &ws)
               .ok(),
           "direct PersonalizedTopK failed");
    walk_len += ws.length;
    fetches += ws.fetches;
    typename Service::PersonalizedBatchQuery q;
    q.seed = seed;
    q.k = kTopK;
    q.walk_length = walk_length_;
    q.rng_seed = rng_seed;
    const uint64_t t0 = NowNs();
    service_->PersonalizedTopKInto(std::span(&q, 1), &scratch);
    const uint64_t t1 = NowNs();
    Expect(q.status.ok(), "direct PersonalizedTopKInto failed");
    tracer_.Record("core.personalized", t0, t1, 0, i);
    walk_ns += t1 - t0;
  }
  const double walk_ns_per_step = static_cast<double>(walk_ns) / static_cast<double>(walk_len);
  const double fetches_per_query = static_cast<double>(fetches) / kDirect;
  m.Set("core.walk_ns_per_step", walk_ns_per_step, "ns");
  m.Set("core.fetches_per_query", fetches_per_query, "count");
  m.Set("core.fetches_vs_theorem8",
        fetches_per_query / fastppr::Theorem8FetchBound(static_cast<double>(walk_length_),
                                                        in.num_nodes, 10, kAlpha),
        "ratio");

  // engine.
  const std::vector<double> ingest_ms = DurationsMs(spans, "engine.ingest");
  m.Set("engine.ingest_call_p50_ms", Percentile(ingest_ms, 0.5), "ms");
  m.Set("engine.ingest_call_p99_ms", Percentile(ingest_ms, 0.99), "ms");
  m.Set("engine.quiesce_ms", Mean(DurationsMs(spans, "engine.quiesce")), "ms");
  const double applied = m.Get("applied_events_per_s");
  m.Set("engine.sharded_vs_flat", flat_rate > 0 ? applied / flat_rate : 0.0, "ratio");
  // Phase-tracer busy time over the measured phase, per executor: the
  // writer and pipeline threads ingest, repair lanes repair, the
  // publisher thread publishes.
  const double write_ns = static_cast<double>(write_end_ns_ - write_start_ns_);
  const auto busy = [&](fastppr::obs::Phase p) {
    const auto i = static_cast<std::size_t>(p);
    return static_cast<double>(busy_after_.phase[i].busy_ns - busy_before_.phase[i].busy_ns);
  };
  const double lanes = static_cast<double>(std::min(kShards, kRepairThreads));
  m.Set("engine.util_ingest", busy(fastppr::obs::Phase::kIngest) / (2.0 * write_ns), "share");
  m.Set("engine.util_repair", busy(fastppr::obs::Phase::kRepair) / (lanes * write_ns), "share");
  m.Set("engine.util_publish", busy(fastppr::obs::Phase::kPublish) / write_ns, "share");
  m.Set("store.publish_ns_per_delta_byte",
        delta_bytes > 0 ? busy(fastppr::obs::Phase::kPublish) / delta_bytes : 0.0, "ns");
  m.Set("engine.replica_bytes", static_cast<double>(engine_->RepairReplicaBytes()), "B");
  {
    fastppr::ReadScratch scratch;
    constexpr int kTopKCalls = 50;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kTopKCalls; ++i) service_->TopKInto(kTopK, &scratch);
    const uint64_t t1 = NowNs();
    tracer_.Record("engine.topk", t0, t1);
    m.Set("engine.topk_us", static_cast<double>(t1 - t0) / kTopKCalls / 1e3, "us");
    constexpr int kScoreCalls = 200'000;
    double sink = 0.0;
    const uint64_t t2 = NowNs();
    for (int i = 0; i < kScoreCalls; ++i) {
      sink += service_->Score(in.seeds[static_cast<std::size_t>(i) % in.seeds.size()]);
    }
    const uint64_t t3 = NowNs();
    tracer_.Record("engine.score", t2, t3);
    Expect(sink > 0.0, "direct Score calls returned no mass");
    m.Set("engine.score_ns", static_cast<double>(t3 - t2) / kScoreCalls, "ns");
  }
  m.Set("engine.ingest_backlog_max_windows", static_cast<double>(backlog_max_), "count");

  // serve: Response timing fields at the named rung.
  const Rung& named = *rungs_.front();
  std::vector<double> queue_ms, outside_ms, svc_ms[serve::kNumQueryClasses];
  std::size_t shed = 0, degraded = 0, expired = 0;
  double personalized_service_ns = 0.0;
  std::size_t personalized_full = 0;
  for (std::size_t i = 0; i < named.submitted; ++i) {
    const Answer& a = named.answers[i];
    shed += a.shed;
    expired += a.expired;
    degraded += a.ok && !a.full;
    if (!a.ok || a.cache_hit) continue;
    queue_ms.push_back(NsToMs(static_cast<double>(a.queue_ns)));
    svc_ms[static_cast<std::size_t>(a.cls)].push_back(NsToMs(static_cast<double>(a.service_ns)));
    outside_ms.push_back(a.latency_ms() - NsToMs(static_cast<double>(a.queue_ns + a.service_ns)));
    if (a.cls == serve::QueryClass::kPersonalized && a.full) {
      personalized_service_ns += static_cast<double>(a.service_ns);
      ++personalized_full;
    }
  }
  const double attempted = static_cast<double>(std::max<std::size_t>(1, named.submitted));
  m.Set("serve.queue_ms_p50", Percentile(queue_ms, 0.5), "ms");
  m.Set("serve.queue_ms_p99", Percentile(queue_ms, 0.99), "ms");
  m.Set("serve.service_ms_p50_personalized", Percentile(svc_ms[2], 0.5), "ms");
  m.Set("serve.service_ms_p50_topk", Percentile(svc_ms[0], 0.5), "ms");
  m.Set("serve.service_ms_p50_score", Percentile(svc_ms[1], 0.5), "ms");
  m.Set("serve.outside_ms_p50", Percentile(outside_ms, 0.5), "ms");
  const double batches = static_cast<double>(named.batches_after - named.batches_before);
  m.Set("serve.batch_size_mean",
        batches > 0 ? static_cast<double>(named.batched_after - named.batched_before) / batches
                    : 0.0,
        "count");
  const double hits = static_cast<double>(named.cache_after.hits - named.cache_before.hits);
  const double misses = static_cast<double>(named.cache_after.misses - named.cache_before.misses);
  m.Set("serve.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "share");
  m.Set("serve.shed_share", static_cast<double>(shed) / attempted, "share");
  m.Set("serve.degraded_share", static_cast<double>(degraded) / attempted, "share");
  m.Set("serve.deadline_share", static_cast<double>(expired) / attempted, "share");
  std::vector<double> behind, late_ms;
  for (std::size_t i = 0; i < named.submitted; ++i) {
    if (named.answers[i].ok) behind.push_back(static_cast<double>(named.answers[i].windows_behind));
  }
  for (double ns : named.late_ns) late_ms.push_back(NsToMs(ns));
  m.Set("serve.staleness_windows_p99", Percentile(behind, 0.99), "count");
  m.Set("serve.gen_late_p99_ms", Percentile(late_ms, 0.99), "ms");
  double sustainable = 0.0;
  for (const auto& r : rungs_) {
    const RungStats rs = Summarize(*r, spec_.latency_limit_ms);
    if (rs.sustainable) sustainable = std::max(sustainable, rs.goodput_qps);
  }
  m.Set("sustainable_qps", sustainable, "1/s");

  // Layer reconciliation: unit costs x unit counts against the measured
  // time. Closed-loop churn: the pipeline runs at the pace of its
  // slowest stage — the writer's primary mutations; the pipeline
  // thread's replica mutations plus the repair spread over the lanes;
  // or the publisher's delta bytes at the publish cost per byte. Read
  // workloads: mean personalized service time against walk length x
  // direct-call cost per step.
  double unexplained = 0.0;
  if (spec_.writer == WriterMode::kClosedLoop) {
    const double writer_stage = events * mutate_ns;
    const double pipeline_stage = events * mutate_ns + steps * repair_ns_per_step / lanes;
    const double publish_stage = busy(fastppr::obs::Phase::kPublish);
    unexplained =
        1.0 - std::max({writer_stage, pipeline_stage, publish_stage}) / write_ns;
  } else if (personalized_full > 0) {
    const double measured = personalized_service_ns / static_cast<double>(personalized_full);
    unexplained = 1.0 - static_cast<double>(walk_length_) * walk_ns_per_step / measured;
  }
  m.Set("engine.unexplained_share", unexplained, "share");

  // Tracing overhead: the cost of one Record call, times the spans the
  // measured phase recorded, as a share of that phase's wall time.
  Tracer probe(true);
  constexpr int kProbeSpans = 100'000;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < kProbeSpans; ++i) probe.Record("probe", t0, t0);
  const double ns_per_span = static_cast<double>(NowNs() - t0) / kProbeSpans;
  const double phase_ns = static_cast<double>(
      std::max(write_end_ns_, rungs_.back()->end_ns) - write_start_ns_);
  std::size_t phase_spans = 0;
  for (const Span& s : spans) {
    phase_spans += s.start_ns >= write_start_ns_ && std::string(s.name).rfind("setup.", 0) != 0;
  }
  m.Set("trace.spans", static_cast<double>(span_count), "count");
  m.Set("trace.overhead_share", static_cast<double>(phase_spans) * ns_per_span / phase_ns,
        "share");
}

}  // namespace

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> out;
  {
    // Graph mutation, repair and publish do the work: a closed-loop
    // writer over the whole stream. The probe reader (about 1% of the
    // box) measures reads under maximal churn; a slow phase of the box
    // gives it more reads per applied event, so it is kept light to keep
    // that out of cpu_us_per_event.
    WorkloadSpec w;
    w.name = "churn_pagerank";
    w.prefix_fraction = 0.6;
    w.writer = WriterMode::kClosedLoop;
    w.read_rates = {100.0};
    w.share_score = 1.0 / 3.0;
    w.share_topk = 1.0 / 3.0;
    w.latency_limit_ms = 100.0;
    out.push_back(w);
  }
  {
    // Walkers, view pins, the TopK merge and the tier's queues do the
    // work. Absolute rates from a sixth of today's tier saturation
    // (about 5.8k req/s) to beyond it; a trickle writer keeps publish
    // and staleness observable.
    WorkloadSpec w;
    w.name = "serve_pagerank";
    w.prefix_fraction = 0.95;
    w.writer = WriterMode::kOpenLoop;
    w.writer_events_per_s = 2560.0;
    w.read_rates = {1000.0, 3000.0, 4500.0, 6000.0};
    w.latency_limit_ms = 25.0;
    out.push_back(w);
  }
  {
    // Writes beside reads: publish, snapshot rotation, epoch-keyed cache
    // invalidation (Zipf seeds repeat) and contention for the cores. The
    // writer runs at about a quarter of SALSA's churn capacity.
    WorkloadSpec w;
    w.name = "live_salsa";
    w.salsa = true;
    w.prefix_fraction = 0.6;
    w.writer = WriterMode::kOpenLoop;
    w.writer_events_per_s = 2000.0;
    w.read_rates = {500.0};
    w.zipf_seeds = true;
    w.latency_limit_ms = 100.0;
    out.push_back(w);
  }
  return out;
}

RunResult RunWorkload(const WorkloadSpec& spec, uint64_t seed, double run_seconds, bool trace,
                      const std::string& trace_path) {
  if (spec.salsa) {
    return Runner<fastppr::IncrementalSalsa>(spec, seed, run_seconds, trace).Run(trace_path);
  }
  return Runner<fastppr::IncrementalPageRank>(spec, seed, run_seconds, trace).Run(trace_path);
}

}  // namespace perfbench
