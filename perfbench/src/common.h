// Shared plumbing for the benchmark program: run options, the result a
// workload hands back, the correctness ledger, and small timing/statistics
// helpers. Nothing here touches the program under test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for scratch state (sockets, span files),
  /// relative to the working directory.
  std::string work_dir = ".bench_run";
  /// When the process started (the set-up clock starts here).
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Records failed correctness checks. A workload keeps running after a
/// failed check so the run still reports its measurements; the result's
/// `correct` flag is what tells the caller not to trust them.
class Checker {
 public:
  /// Returns `ok`; on failure records `what` (first few printed to stderr).
  bool expect(bool ok, const std::string& what) {
    if (!ok) {
      if (failures_ < 10) std::cerr << "check failed: " << what << "\n";
      ++failures_;
    }
    return ok;
  }
  bool all_passed() const { return failures_ == 0; }

 private:
  long long failures_ = 0;
};

struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Fastest time of each repeated item, summed over the items: the cost of
/// one round of the items with each item at its least disturbed. On a
/// shared host whose speed changes in phases of seconds, this reads the
/// program's own cost far more steadily than a median (see README).
inline double sum_of_minima(const std::vector<std::vector<double>>& per_item) {
  double sum = 0.0;
  for (const auto& v : per_item) {
    if (!v.empty()) sum += *std::min_element(v.begin(), v.end());
  }
  return sum;
}

/// One stderr line describing a sample: count, min, median, max.
inline void describe(const std::string& what, const std::vector<double>& v) {
  if (v.empty()) return;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  std::cerr << what << ": n=" << v.size() << " min=" << *lo
            << " median=" << median(v) << " max=" << *hi << "\n";
}

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb_self();

/// Peak resident set of the largest reaped child, in MB.
double peak_rss_mb_children();

}  // namespace perfbench
