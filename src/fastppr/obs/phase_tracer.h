#ifndef FASTPPR_OBS_PHASE_TRACER_H_
#define FASTPPR_OBS_PHASE_TRACER_H_

// Epoch-stamped phase span recorder (DESIGN.md §9).
//
// The engine's window loop alternates single-writer ingest phases with
// parallel repair phases, and the query service appends publish phases
// at window boundaries. The tracer records each phase as a completed
// [start_ns, end_ns] span on a per-track timeline (track s = shard s's
// repair work; a writer track carries ingest/fsync and a publish track
// the frozen-view publishes), so a whole bench run can be exported as a
// chrome://tracing JSON and summarized into per-phase utilization
// fractions.
//
// Recording takes a per-track mutex (uncontended in the engine: one
// thread owns a track at a time within a phase) and is bounded: each
// track keeps at most `max_spans_per_track` spans and counts the rest
// as dropped, so a long run cannot grow without bound. Dropped spans
// still contribute to Totals()'s busy time.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fastppr/util/status.h"

namespace fastppr::obs {

enum class Phase : uint8_t { kIngest = 0, kRepair = 1, kPublish = 2,
                             kFsync = 3 };
constexpr std::size_t kNumPhases = 4;

const char* PhaseName(Phase p);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t epoch = 0;
  Phase phase = Phase::kIngest;
};

class PhaseTracer {
 public:
  PhaseTracer() = default;
  PhaseTracer(const PhaseTracer&) = delete;
  PhaseTracer& operator=(const PhaseTracer&) = delete;

  /// (Re)shapes the tracer to `tracks` timelines, discarding recorded
  /// spans. Not thread-safe against concurrent Record.
  void Init(std::size_t tracks, std::size_t max_spans_per_track = 1 << 16);

  std::size_t num_tracks() const { return tracks_.size(); }

  /// Records one completed span on `track`. Thread-safe per track and
  /// across tracks.
  void Record(std::size_t track, Phase phase, uint64_t epoch,
              uint64_t start_ns, uint64_t end_ns);

  /// Copy of one track's retained spans, in recording order.
  std::vector<Span> SpansForTrack(std::size_t track) const;
  /// Spans recorded beyond the per-track cap (busy time still counted).
  uint64_t dropped(std::size_t track) const;

  struct PhaseTotal {
    uint64_t busy_ns = 0;
    uint64_t span_count = 0;
  };
  struct Totals {
    PhaseTotal phase[kNumPhases];
    uint64_t min_start_ns = 0;  ///< earliest span start (0 if empty)
    uint64_t max_end_ns = 0;    ///< latest span end
    /// max_end - min_start; the denominator for utilization fractions.
    uint64_t wall_ns() const {
      return max_end_ns > min_start_ns ? max_end_ns - min_start_ns : 0;
    }
    /// Fraction of the trace wall time `p` was busy, normalized by
    /// `parallelism` executors (repair uses parallelism = num shards,
    /// single-writer phases use 1). In [0, 1] up to clock jitter.
    double Utilization(Phase p, double parallelism = 1.0) const {
      const uint64_t wall = wall_ns();
      if (wall == 0 || parallelism <= 0.0) return 0.0;
      return static_cast<double>(phase[static_cast<std::size_t>(p)].busy_ns) /
             (static_cast<double>(wall) * parallelism);
    }
  };
  Totals ComputeTotals() const;

  /// Writes every retained span as a chrome://tracing "trace event"
  /// JSON file (open via chrome://tracing or https://ui.perfetto.dev):
  /// one complete ("ph":"X") event per span, tid = track, timestamps in
  /// microseconds, the ingestion epoch in args.
  Status WriteChromeTrace(const std::string& path) const;

  /// Drops all recorded spans and dropped counts; tracks keep their
  /// shape. Not thread-safe against concurrent Record.
  void Clear();

 private:
  struct alignas(64) Track {
    mutable std::mutex mu;
    std::vector<Span> spans;
    uint64_t dropped = 0;
    uint64_t busy_ns[kNumPhases] = {0, 0, 0, 0};
    uint64_t span_count[kNumPhases] = {0, 0, 0, 0};
    uint64_t min_start_ns = ~uint64_t{0};
    uint64_t max_end_ns = 0;
  };
  std::vector<std::unique_ptr<Track>> tracks_;
  std::size_t max_spans_per_track_ = 1 << 16;
};

}  // namespace fastppr::obs

#endif  // FASTPPR_OBS_PHASE_TRACER_H_
