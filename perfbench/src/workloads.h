// The benchmark's workloads and the pieces they share: seeded inputs, the
// traced-request harness and the per-layer metric report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common.h"
#include "service/service.h"
#include "trace.h"
#include "workloads/suite.h"

namespace perfbench {

// --- Inputs ---------------------------------------------------------------

/// The paper suite (workloads::paper_suite drawn from the benches' fixed
/// seed 2022) with its 80 random-family members re-drawn from `seed` at the
/// same (qubits, gates, two-qubit count). Member sizes stay fixed, so the
/// cost of a pass does not swing with the seed; gate contents do change.
std::vector<qfs::workloads::Benchmark> seeded_paper_suite(std::uint64_t seed);

/// Shape of the large circuit: 60 qubits, 50 % two-qubit gates.
inline constexpr int kLargeQubits = 60;
inline constexpr int kLargeGates = 20000;
qfs::circuit::Circuit large_circuit(std::uint64_t seed);

/// `qfsc --device surface97 --router lookahead` (placer, seed, latency and
/// pipeline at qfsc's defaults) for QASM text.
qfs::service::CompileRequest qfsc_request(const std::string& qasm);

// --- Traced runs ----------------------------------------------------------

/// Per-request figures of a traced run, beside the spans.
struct TraceLedger {
  long long requests = 0;
  std::vector<double> execute_ms;
  std::vector<double> unattributed_ms;
  std::vector<double> overhead_ms;
  // Daemon round trips only.
  std::vector<double> server_queue_ms;
  std::vector<double> server_total_ms;
  std::vector<double> client_rtt_ms;
  std::vector<double> client_codec_ms;
  std::vector<double> client_transport_ms;
};

/// Caches the two replays of a traced request use (null = none).
struct ReplayCaches {
  qfs::cache::CompileCache* untraced = nullptr;
  qfs::cache::CompileCache* traced = nullptr;
};

/// Run `request` through CompileService::execute, then replay it stage by
/// stage twice (tracer off, tracer on). The replay must reproduce execute's
/// digest, SWAP count and cache outcome; a mismatch fails the check.
/// Records execute time, unattributed time (execute minus the traced
/// stages) and tracing overhead (traced minus untraced replay) in `ledger`.
/// Returns execute's response.
qfs::service::CompileResponse traced_request(
    const qfs::service::CompileService& service,
    const qfs::service::CompileRequest& request, ReplayCaches caches,
    Tracer& tracer, TraceLedger& ledger, Checker& checker,
    const std::string& label);

/// Every per-layer metric, from the spans, counters and ledger. Layer
/// times are mean self time per call; cache hits and misses are per traced
/// request, SWAPs per routing call; execute, unattributed and overhead
/// times are medians over traced requests, the wire figures means over
/// round trips. A layer the workload never calls reads 0.
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const TraceLedger& ledger);

// --- Workloads --------------------------------------------------------------

RunResult run_paper_suite(const RunOptions& opts, Checker& checker,
                          Tracer& tracer, TraceLedger& ledger);
RunResult run_large_cold(const RunOptions& opts, Checker& checker,
                         Tracer& tracer, TraceLedger& ledger);
RunResult run_daemon_hot(const RunOptions& opts, Checker& checker,
                         Tracer& tracer, TraceLedger& ledger);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double latency_ms = 0.0;
  double mapped_gates = 0.0;
  double swaps = 0.0;
  double artifact_bytes = 0.0;
};
std::vector<Metric> end_to_end_metrics(const EndToEnd& e);

}  // namespace perfbench
