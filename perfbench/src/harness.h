#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing of the benchmark: clock, percentiles, the
// open-loop generator, the staleness map, the span recorder and the
// result line. Nothing here calls into the library under test except
// its clock (obs::NowNanos), so the harness itself can be self-tested
// without building a graph (selftest.cc).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fastppr/obs/latency_histogram.h"
#include "fastppr/util/random.h"

namespace perfbench {

inline uint64_t NowNs() { return fastppr::obs::NowNanos(); }
inline double NsToMs(double ns) { return ns / 1e6; }

/// CPU time used so far by all threads of this process. The kernel
/// charges a thread only while it runs, so, unlike wall time, this does
/// not grow when other load on a shared box keeps the threads waiting
/// for a core or the host deschedules the virtual CPU.
inline uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 for an
/// empty sample. Sorts a copy.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A value observed at an instant (latency by due time, staleness by
/// response time).
struct Timed {
  uint64_t at_ns = 0;
  double value = 0.0;
};

inline std::vector<double> Values(const std::vector<Timed>& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const Timed& t : s) out.push_back(t.value);
  return out;
}

/// The percentile of each of `slices` equal time slices of the sample,
/// reported as the median over the slices holding at least
/// `min_per_slice` values (the plain percentile when none does). A tail
/// percentile over a whole run moves with whichever few seconds the box
/// was busiest; the median over slices reports the tail the system
/// shows most of the time.
inline double SlicedPercentile(const std::vector<Timed>& s, double q, std::size_t slices,
                               std::size_t min_per_slice) {
  if (s.empty()) return 0.0;
  uint64_t lo = s.front().at_ns, hi = s.front().at_ns;
  for (const Timed& t : s) {
    lo = std::min(lo, t.at_ns);
    hi = std::max(hi, t.at_ns);
  }
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(slices);
  std::vector<std::vector<double>> bucket(slices);
  for (const Timed& t : s) {
    const auto b = static_cast<std::size_t>(static_cast<double>(t.at_ns - lo) / width);
    bucket[std::min(b, slices - 1)].push_back(t.value);
  }
  std::vector<double> per_slice;
  for (auto& b : bucket) {
    if (b.size() >= min_per_slice) per_slice.push_back(Percentile(std::move(b), q));
  }
  return per_slice.empty() ? Percentile(Values(s), q) : Median(std::move(per_slice));
}

/// Poisson arrival offsets (ns from the phase start) at `rate_per_s`
/// covering `seconds`, drawn from the caller's seeded Rng — fixed before
/// the phase starts, so the schedule never depends on the system.
inline std::vector<uint64_t> PoissonSchedule(double rate_per_s, double seconds,
                                             fastppr::Rng* rng) {
  std::vector<uint64_t> out;
  const double mean_gap_ns = 1e9 / rate_per_s;
  const double end_ns = seconds * 1e9;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng->NextDouble()) * mean_gap_ns;
    if (t >= end_ns) break;
    out.push_back(static_cast<uint64_t>(t));
  }
  return out;
}

/// Evenly spaced offsets: `count` arrivals `period_ns` apart, the first
/// one `period_ns` after the phase start.
inline std::vector<uint64_t> PeriodicSchedule(std::size_t count,
                                              uint64_t period_ns) {
  std::vector<uint64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = (i + 1) * period_ns;
  return out;
}

/// Drives `sink(i, due_ns)` at every scheduled instant t0 + offsets[i],
/// regardless of how long the sink takes: a slow sink makes later
/// arrivals late (recorded), never fewer or later-scheduled. Stops early
/// when `stop` becomes true. Returns per-arrival lateness in ns. Sleeps
/// in coarse ticks so the generator does not steal the cores it
/// measures; the lag is charged to each request through its due time.
template <typename Sink>
std::vector<double> RunOpenLoop(const std::vector<uint64_t>& offsets,
                                uint64_t t0, const std::atomic<bool>* stop,
                                const Sink& sink) {
  std::vector<double> late;
  late.reserve(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const uint64_t due = t0 + offsets[i];
    for (;;) {
      const uint64_t now = NowNs();
      if (now >= due) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<uint64_t>(due - now, 100'000)));
    }
    late.push_back(static_cast<double>(NowNs() - due));
    sink(i, due);
  }
  return late;
}

/// Epoch -> window bookkeeping for staleness. Windows are numbered
/// 1..N; epoch e reflects windows 1..e. `submit_ns[w]` is when window w
/// was submitted (its scheduled instant for an open-loop writer, the
/// Ingest() call for a closed loop); kNotYet until then. Submission
/// times are non-decreasing in w.
class WindowClock {
 public:
  static constexpr uint64_t kNotYet = ~uint64_t{0};

  explicit WindowClock(std::size_t windows) : submit_ns_(windows + 2) {
    for (auto& t : submit_ns_) t.store(kNotYet, std::memory_order_relaxed);
  }
  std::size_t windows() const { return submit_ns_.size() - 2; }
  void MarkSubmitted(std::size_t window, uint64_t at_ns) {
    submit_ns_[window].store(at_ns, std::memory_order_release);
  }
  uint64_t submitted_at(std::size_t window) const {
    return window < submit_ns_.size()
               ? submit_ns_[window].load(std::memory_order_acquire)
               : kNotYet;
  }
  /// Windows submitted at or before `now_ns`.
  std::size_t SubmittedBy(uint64_t now_ns) const {
    std::size_t lo = 1, hi = windows() + 1;  // first window not yet in
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (submitted_at(mid) <= now_ns) lo = mid + 1; else hi = mid;
    }
    return lo - 1;
  }
  /// Age at `now_ns` of the oldest submitted window an answer computed
  /// at `epoch` does not reflect; 0 when it reflects every submitted one.
  uint64_t StalenessNs(uint64_t epoch, uint64_t now_ns) const {
    const uint64_t t = submitted_at(epoch + 1);
    return t != kNotYet && t <= now_ns ? now_ns - t : 0;
  }
  /// Submitted windows the answer does not reflect.
  std::size_t WindowsBehind(uint64_t epoch, uint64_t now_ns) const {
    const std::size_t in = SubmittedBy(now_ns);
    return in > epoch ? in - epoch : 0;
  }

 private:
  std::vector<std::atomic<uint64_t>> submit_ns_;
};

/// One recorded span: a call from the benchmark into a layer.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request / window id the span belongs to
  double dur_ms() const { return NsToMs(static_cast<double>(end_ns - start_ns)); }
};

/// In-memory span log. Disabled (the untraced runs) it costs one
/// relaxed load per call site. Each thread appends to its own buffer;
/// buffers are merged only after the measured phase.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0) {
    if (!enabled_) return 0;
    const uint64_t id = NextId();
    Buffer()->push_back(Span{name, start_ns, end_ns, id, parent, request});
    return id;
  }

  /// Runs `fn`, recording it as span `name`.
  template <typename Fn>
  auto Time(const char* name, const Fn& fn, uint64_t parent = 0,
            uint64_t request = 0) {
    const uint64_t t0 = NowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(name, t0, NowNs(), parent, request);
    } else {
      auto r = fn();
      Record(name, t0, NowNs(), parent, request);
      return r;
    }
  }

  /// All spans recorded so far (call only after recording threads ended).
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
    return out;
  }
  /// Writes the spans as chrome://tracing JSON (one complete event each;
  /// tid = root span so a request's children share a row).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<Span> spans = Collect();
    uint64_t base = ~uint64_t{0};
    for (const Span& s : spans) base = std::min(base, s.start_ns);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}%s\n",
                   s.name,
                   static_cast<unsigned long long>(s.parent != 0 ? s.parent : s.id),
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span>* Buffer() {
    // One buffer per (thread, tracer), keyed by a process-unique tracer
    // id so a tracer built where an old one lived never finds its buffer.
    thread_local std::vector<std::pair<uint64_t, std::vector<Span>*>> mine;
    for (auto& [uid, b] : mine) {
      if (uid == uid_) return b;
    }
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    mine.emplace_back(uid_, buffers_.back().get());
    return buffers_.back().get();
  }

  static uint64_t NextTracerId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const bool enabled_;
  const uint64_t uid_ = NextTracerId();
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Durations (ms) of every span named `name`.
inline std::vector<double> DurationsMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.dur_ms());
  }
  return out;
}

/// Zipf(s) over ranks [0, n) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t Draw(fastppr::Rng* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Peak resident set of this process (VmHWM), in MiB.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Named metrics in insertion order, printed as the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  bool empty() const { return entries_.empty(); }
  double Get(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? 0.0 : entries_[it->second].value;
  }
  /// Human-readable table on stdout (before the result line).
  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& e : entries_) {
      std::printf("  %-40s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
