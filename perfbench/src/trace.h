// In-memory span recorder for the traced run.
//
// Each span records its name, start, end, parent span and the request it
// belongs to. Spans are appended to a vector while the workload runs and
// written out once at exit; per-layer self times (a span's duration minus
// the part its children cover) and counts are derived from the vector.
// Single-threaded: the traced workloads run on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_ms = 0.0;  ///< relative to the tracer's origin
    double end_ms = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
    long long request = -1;
  };

  struct LayerTotals {
    double self_ms = 0.0;
    long long spans = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one. Returns its index (-1 when
  /// tracing is off).
  int begin(const char* name, long long request);
  void end(int index);

  /// Add `value` to the named counter (no-op when tracing is off).
  void count(const std::string& name, double value);

  /// Self time and span count per span name.
  std::map<std::string, LayerTotals> layer_totals() const;

  /// Counter totals by name.
  const std::map<std::string, double>& counters() const { return counters_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one tab-separated line:
  /// index, name, start_ms, end_ms, parent, request.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, long long request)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
