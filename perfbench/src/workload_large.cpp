// large_cold: one seeded large random circuit compiled as
//   qfsc --device surface97 --router lookahead --verify-output --emit-json
// would compile its QASM file (no cache).
#include <iostream>

#include "cache/artifact.h"
#include "checks.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using qfs::service::CompileRequest;
using qfs::service::CompileResponse;
using qfs::service::CompileService;

namespace {

/// What `--emit-json` prints for a response.
std::string emit_json(const CompileResponse& resp) {
  return qfs::service::mapping_metrics_json(resp).to_pretty_string();
}

struct LargeInput {
  std::string qasm;
  qfs::circuit::Circuit source;  ///< parsed back from `qasm`
  qfs::device::Device device;
};

LargeInput make_large_input(std::uint64_t seed) {
  LargeInput in;
  in.qasm = qfs::qasm::to_qasm(large_circuit(seed));
  auto parsed = qfs::qasm::parse(in.qasm);
  if (!parsed.is_ok()) {
    throw std::runtime_error("large circuit does not parse back: " +
                             parsed.status().to_string());
  }
  in.source = std::move(parsed).value();
  std::string error;
  if (!CompileService::parse_device("surface97", in.device, error)) {
    throw std::runtime_error("surface97: " + error);
  }
  return in;
}

/// Full property check of the reference compile.
void check_reference(Checker& checker, const LargeInput& in,
                     const CompileResponse& resp) {
  if (!checker.expect(resp.ok(), "large: " + resp.error_message)) return;
  check_mapping(checker, "large", in.source, in.device, resp.mapping);
  checker.expect(resp.mapped_digest == mapped_digest(resp.mapping.mapped),
                 "large: response digest does not match its mapped circuit");
}

}  // namespace

RunResult run_large_cold(const RunOptions& opts, Checker& checker,
                         Tracer& tracer, TraceLedger& ledger) {
  const LargeInput in = make_large_input(opts.seed);
  CompileRequest request = qfsc_request(in.qasm);
  request.verify_artifact = true;
  const CompileService service;

  // Warm-up compile, checked in full; later compiles must reproduce it.
  const CompileResponse ref = service.execute(request);
  check_reference(checker, in, ref);
  const std::string ref_json = emit_json(ref);
  std::cerr << "large_cold: " << in.source.gate_count() << " gates -> "
            << ref.mapping.gates_after << " mapped, "
            << ref.mapping.swaps_inserted << " swaps\n";

  EndToEnd e2e;
  e2e.setup_s = ms_since(opts.process_start) / 1000.0;
  e2e.mapped_gates = ref.mapping.gates_after;
  e2e.swaps = ref.mapping.swaps_inserted;
  e2e.artifact_bytes = static_cast<double>(
      qfs::cache::serialize_mapping_result(ref.mapping).size());

  RunResult result;
  std::vector<double> op_ms;
  const Clock::time_point run_start = Clock::now();
  while (op_ms.empty() || ms_since(run_start) < opts.seconds * 1000.0) {
    const Clock::time_point t0 = Clock::now();
    CompileResponse resp =
        opts.trace ? traced_request(service, request, {}, tracer, ledger,
                                    checker, "large_cold")
                   : service.execute(request);
    std::string json = resp.ok() ? emit_json(resp) : std::string();
    op_ms.push_back(ms_since(t0));
    ++result.attempted;
    if (!resp.ok()) {
      ++result.failed;
      checker.expect(false, "large_cold: " + resp.error_message);
      continue;
    }
    checker.expect(json == ref_json && resp.mapped_digest == ref.mapped_digest,
                   "large_cold: output differs from the reference compile");
  }

  e2e.peak_rss_mb = peak_rss_mb_self();
  describe("large_cold op ms", op_ms);
  e2e.latency_ms = sum_of_minima({op_ms});
  result.metrics = end_to_end_metrics(e2e);
  return result;
}

}  // namespace perfbench
