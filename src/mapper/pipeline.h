// The full mapping pipeline (the paper's Sec. III four-step process):
//   1. decompose to the device's primitive gate set,
//   2. place virtual qubits (initial layout),
//   3. route with SWAP insertion,
//   4. expand SWAPs to primitives and (optionally) schedule.
//
// The result carries the paper's evaluation metrics: gate overhead,
// depth/latency overhead, and estimated fidelity before/after mapping.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/equiv.h"
#include "circuit/circuit.h"
#include "compiler/schedule.h"
#include "device/device.h"
#include "mapper/placement.h"
#include "mapper/routing.h"
#include "support/rng.h"
#include "support/status.h"

namespace qfs::mapper {

struct MappingOptions {
  std::string placer = "trivial";
  std::string router = "trivial";
  /// Non-empty: use this explicit virtual->physical placement (one entry
  /// per circuit qubit) instead of running the placer.
  std::vector<int> initial_layout;
  /// SABRE-style placement refinement: each round routes the circuit
  /// forward then backward, feeding the resulting layout back as the next
  /// initial placement. 0 disables refinement.
  int sabre_refinement_rounds = 0;
  /// Also compute ASAP schedules of the pre-/post-mapping circuits to
  /// report latency overhead (slower; off for bulk sweeps).
  bool compute_latency = false;
};

struct MappingResult {
  /// Final physical circuit: primitives only, connectivity-compliant.
  circuit::Circuit mapped;

  /// Virtual -> physical maps over the original circuit's qubits.
  std::vector<int> initial_layout;
  std::vector<int> final_layout;

  int swaps_inserted = 0;

  /// Gate counts of the decomposed circuit before and after mapping.
  int gates_before = 0;
  int gates_after = 0;
  /// (after - before) / before * 100.
  double gate_overhead_pct = 0.0;

  int depth_before = 0;
  int depth_after = 0;
  double depth_overhead_pct = 0.0;

  /// Estimated fidelity (product over 1q/2q gates) before/after mapping.
  double fidelity_before = 1.0;
  double fidelity_after = 1.0;
  double log_fidelity_before = 0.0;
  double log_fidelity_after = 0.0;
  /// (f_before - f_after) / f_before * 100 == (1 - exp(dlog)) * 100.
  double fidelity_decrease_pct = 0.0;

  /// ASAP makespans in ns (only when options.compute_latency).
  double latency_before_ns = 0.0;
  double latency_after_ns = 0.0;
  double latency_overhead_pct = 0.0;
};

/// Map `circuit` onto `device`. The circuit may use any gate kinds; it is
/// decomposed to the device gate set first. Deterministic given `rng`.
MappingResult map_circuit(const circuit::Circuit& circuit,
                          const device::Device& device,
                          const MappingOptions& options, qfs::Rng& rng);

/// Convenience overload: the paper's baseline (trivial placer + router).
MappingResult map_circuit(const circuit::Circuit& circuit,
                          const device::Device& device, qfs::Rng& rng);

// ---------------------------------------------------------------------------
// Resilient compilation: a fallback ladder over (placer, router, seed)
// attempts with per-attempt validation, for degraded or adversarial inputs.
// Unlike map_circuit, nothing here asserts on bad external input: every
// failure mode is reported as a structured Status and logged per attempt.
// ---------------------------------------------------------------------------

/// Per-attempt memoization hooks for compile_resilient, wired up by the
/// compilation cache (src/cache) without a mapper->cache dependency. The
/// attempt key is the rung's "placer|router|seed" triple; the installer is
/// expected to fold it into its own circuit/device/pipeline fingerprint.
/// `lookup` returns true and fills `out` on a hit; a hit still passes the
/// normal per-attempt validation — the only check it gets — so a stale or
/// damaged artifact degrades to a fresh compile instead of escaping.
/// `reject` (optional) is told about a hit that failed that validation,
/// before the rung recompiles. `store` receives only results that passed
/// validation.
struct AttemptMemo {
  std::function<bool(const std::string& attempt_key, MappingResult* out)>
      lookup;
  std::function<void(const std::string& attempt_key, const MappingResult&)>
      store;
  std::function<void(const std::string& attempt_key)> reject;
};

struct ResilientOptions {
  /// First attempt runs exactly these options; fallback attempts override
  /// only placer, router and seed.
  MappingOptions base;
  int max_attempts = 6;
  std::uint64_t seed = 2022;
  /// Small-circuit equivalence checking simulates the full physical
  /// register (cost 2^n); it only runs when the device has at most this
  /// many qubits and the input circuit is unitary-only.
  int equivalence_max_qubits = 8;
  int equivalence_trials = 2;
  /// Optional per-attempt result memoization (not owned; may be null).
  const AttemptMemo* memo = nullptr;
};

/// Outcome of one rung of the fallback ladder.
struct CompileAttempt {
  int attempt = 0;
  std::string placer;
  std::string router;
  std::uint64_t seed = 0;
  /// ok for the winning attempt; otherwise why the attempt was rejected.
  qfs::Status status;
  double fidelity_after = 0.0;
  int gates_after = 0;
  int swaps_inserted = 0;
};

/// Every attempt made, in order; the last entry is ok iff compilation
/// succeeded.
using CompileAttemptLog = std::vector<CompileAttempt>;

/// Multi-line human-readable rendering of an attempt log (diagnostics).
std::string attempt_log_to_string(const CompileAttemptLog& log);

struct ResilientResult {
  MappingResult mapping;
  MappingOptions options_used;
  std::uint64_t seed_used = 0;
  CompileAttemptLog log;
  /// True when `mapping` is a memoized artifact that passed validation; a
  /// rejected hit that was recompiled reports false.
  bool from_memo = false;
};

/// The translation validator's borrowed view of `result` (analysis/equiv.h).
analysis::TranslationArtifact translation_artifact(const MappingResult& result);

/// Prove `result` is a faithful translation of `circuit` on `device` with
/// the translation validator, stopping at the first finding. Resilient
/// attempts, memoized or fresh, pass this once inside compile_resilient's
/// per-attempt validation, and the service's direct-pipeline cache hits
/// pass it once before they are served.
qfs::Status check_translation(const circuit::Circuit& circuit,
                              const MappingResult& result,
                              const device::Device& device);

/// Compile `circuit` for `device`, retrying across a fallback ladder of
/// (placer, router, seed) combinations until an attempt passes validation:
/// coupling-graph compliance, primitive-gate-set compliance, fidelity
/// sanity, and (small devices) simulation-based equivalence. Returns
/// resource_exhausted when the circuit cannot fit the device or when every
/// attempt fails; `log_out` (optional) receives the attempt log either way.
qfs::StatusOr<ResilientResult> compile_resilient(
    const circuit::Circuit& circuit, const device::Device& device,
    const ResilientOptions& options = {}, CompileAttemptLog* log_out = nullptr);

}  // namespace qfs::mapper
