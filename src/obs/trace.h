/// Per-query trace spans: a wall-clock span tree recording where a query
/// spent its time and how many rows each stage touched.
///
/// A Trace rides on the query's ExecutionContext (core/exec_context.h):
/// the service attaches one when the query is EXPLAIN ANALYZE, when the
/// caller forces tracing (ExecOptions::force_trace, the shell's `.trace
/// on`), or when the sampling counter fires (ServiceOptions::
/// trace_sample_every). A null trace pointer means tracing is off and the
/// instrumentation sites cost one pointer load and a predicted branch --
/// the <2% hot-path budget bench/obs_overhead.cc asserts.
///
/// Stages recorded today (the span glossary in docs/OBSERVABILITY.md):
/// parse, admission, execute (with the engine choice in its note), cache
/// probe results, per-shard index descents and scans (one span per shard,
/// with candidate/exact-check counts), the quantized filter's setup (code
/// compile and LUT build), filter and refine phases, and the final
/// merge/sort. The service closes the root span and
/// stamps the returned row count.
///
/// Thread-safety: spans may be opened and closed from any thread (the
/// engine's scatter-gather workers record per-shard spans); every method
/// locks a private mutex. That cost is paid only while tracing is on.
/// ScopedSpan is the no-op-on-null RAII the instrumentation sites use.

#ifndef SIMQ_OBS_TRACE_H_
#define SIMQ_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace simq {
namespace obs {

/// One recorded stage. Offsets are milliseconds since the trace was
/// created; `parent` indexes the owning Trace's span list (-1 = root).
struct TraceSpan {
  std::string name;
  int parent = -1;
  int shard = -1;  // >= 0 on per-shard spans (render/sort key)
  double start_ms = 0.0;
  double elapsed_ms = 0.0;
  int64_t rows_scanned = 0;   // rows (or pairs) the stage examined
  int64_t rows_pruned = 0;    // examined entries discarded by a bound
  int64_t rows_returned = 0;  // rows the stage passed downstream
  std::string note;           // engine choice / cache outcome / detail
};

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  /// Creation opens the root span (index 0, named "query"); the service
  /// closes it when the execution finishes.
  Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  static constexpr int kRoot = 0;

  /// Opens a span; returns its id (stable index into spans()).
  int StartSpan(const std::string& name, int parent = kRoot);
  /// Closes an open span, fixing its elapsed time.
  void EndSpan(int id);
  /// Records an already-measured stage (e.g. a parse that finished before
  /// the trace existed, or a per-shard duration captured by a worker).
  int AddCompleted(const std::string& name, int parent, double start_ms,
                   double elapsed_ms);

  void SetShard(int id, int shard);
  void SetRows(int id, int64_t scanned, int64_t pruned, int64_t returned);
  void SetNote(int id, const std::string& note);

  /// Milliseconds since the trace was created (for AddCompleted starts).
  double NowMs() const;

  /// Parent span id the engine should attach its stages under; the
  /// service points this at its "execute" span before calling into the
  /// engine (the engine never sees service span ids otherwise).
  void SetEngineParent(int id);
  int engine_parent() const;

  /// Snapshot of every span recorded so far (open spans report the
  /// elapsed time up to now).
  std::vector<TraceSpan> spans() const;

 private:
  mutable std::mutex mutex_;
  Clock::time_point start_;
  std::vector<TraceSpan> spans_;
  std::vector<Clock::time_point> opened_;  // open spans' start instants
  std::vector<char> open_;                 // 1 while the span is open
  int engine_parent_ = kRoot;
};

/// RAII span that is a complete no-op when `trace` is null -- the form
/// every instrumentation site uses so the tracing-off cost stays at one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, int parent = Trace::kRoot)
      : trace_(trace),
        id_(trace != nullptr ? trace->StartSpan(name, parent) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->EndSpan(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  bool active() const { return trace_ != nullptr; }

  void Rows(int64_t scanned, int64_t pruned, int64_t returned) {
    if (trace_ != nullptr) {
      trace_->SetRows(id_, scanned, pruned, returned);
    }
  }
  void Note(const std::string& note) {
    if (trace_ != nullptr) {
      trace_->SetNote(id_, note);
    }
  }

 private:
  Trace* trace_;
  int id_;
};

/// Renders the span tree as an indented text table (what EXPLAIN ANALYZE
/// and `.trace` print): one line per span, children indented under their
/// parent, per-shard children ordered by shard id, with wall time and
/// nonzero row counts.
std::string RenderTraceTree(const std::vector<TraceSpan>& spans);

}  // namespace obs
}  // namespace simq

#endif  // SIMQ_OBS_TRACE_H_
