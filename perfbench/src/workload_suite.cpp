// paper_suite: the paper's compilation study. The 200-circuit suite is
// compiled through CompileService with the "direct" pipeline, trivial
// placer and router, onto Surface-97, one pass after another — the figure
// benches' path (bench::run_suite) on one thread.
#include <algorithm>
#include <iostream>

#include "cache/artifact.h"
#include "checks.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

using qfs::service::CompileRequest;
using qfs::service::CompileResponse;

namespace {

struct Expected {
  int gates_after = 0;
  int swaps = 0;
};

CompileRequest suite_request(const qfs::workloads::Benchmark& b,
                             const qfs::device::Device& device,
                             std::size_t index) {
  CompileRequest request;
  request.circuit = &b.circuit;
  request.source_name = b.name;
  request.device_obj = &device;
  request.pipeline = "direct";
  request.seed = qfs::derive_seed(2022, index);
  request.want_digest = false;
  return request;
}

}  // namespace

RunResult run_paper_suite(const RunOptions& opts, Checker& checker,
                          Tracer& tracer, TraceLedger& ledger) {
  qfs::device::Device device;
  std::string error;
  if (!qfs::service::CompileService::parse_device("surface97", device,
                                                  error)) {
    throw std::runtime_error("surface97: " + error);
  }
  const auto suite = seeded_paper_suite(opts.seed);
  const qfs::service::CompileService service;

  // Set-up pass: compile every circuit once, check each artifact in full
  // (outside any timed region) and remember what later passes must match.
  std::vector<Expected> expected(suite.size());
  double artifact_bytes = 0.0;
  int clifford_checked = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    CompileResponse resp = service.execute(suite_request(suite[i], device, i));
    if (!checker.expect(resp.ok(), suite[i].name + ": " + resp.error_message)) {
      continue;
    }
    if (check_mapping(checker, suite[i].name, suite[i].circuit, device,
                      resp.mapping)) {
      ++clifford_checked;
    }
    expected[i] = {resp.mapping.gates_after, resp.mapping.swaps_inserted};
    artifact_bytes += static_cast<double>(
        qfs::cache::serialize_mapping_result(resp.mapping).size());
  }
  long long input_gates = 0;
  long long input_two_qubit = 0;
  int max_qubits = 0;
  for (const auto& b : suite) {
    input_gates += b.circuit.gate_count();
    input_two_qubit += b.circuit.two_qubit_gate_count();
    max_qubits = std::max(max_qubits, b.circuit.num_qubits());
  }
  std::cerr << "paper_suite: " << suite.size() << " circuits, "
            << input_gates << " gates (" << input_two_qubit
            << " two-qubit), up to " << max_qubits << " qubits; "
            << clifford_checked << " Clifford circuits simulated\n";

  EndToEnd e2e;
  e2e.setup_s = ms_since(opts.process_start) / 1000.0;

  RunResult result;
  std::vector<double> pass_ms;
  std::vector<std::vector<double>> circuit_ms(suite.size());
  double pass_gates = 0.0;
  double pass_swaps = 0.0;
  const Clock::time_point run_start = Clock::now();
  while (pass_ms.empty() || ms_since(run_start) < opts.seconds * 1000.0) {
    double gates = 0.0;
    double swaps = 0.0;
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const CompileRequest request = suite_request(suite[i], device, i);
      const Clock::time_point t0 = Clock::now();
      CompileResponse resp =
          opts.trace ? traced_request(service, request, {}, tracer, ledger,
                                      checker, suite[i].name)
                     : service.execute(request);
      circuit_ms[i].push_back(ms_since(t0));
      ++result.attempted;
      if (!resp.ok()) {
        ++result.failed;
        continue;
      }
      gates += resp.mapping.gates_after;
      swaps += resp.mapping.swaps_inserted;
      checker.expect(resp.mapping.gates_after == expected[i].gates_after &&
                         resp.mapping.swaps_inserted == expected[i].swaps,
                     suite[i].name + ": result differs from the set-up pass");
    }
    pass_ms.push_back(ms_since(pass_start));
    if (pass_ms.size() > 1) {
      checker.expect(gates == pass_gates && swaps == pass_swaps,
                     "suite totals differ between passes");
    }
    pass_gates = gates;
    pass_swaps = swaps;
  }
  checker.expect(result.failed == 0, "suite compiles failed");

  e2e.peak_rss_mb = peak_rss_mb_self();
  describe("paper_suite pass ms", pass_ms);
  e2e.latency_ms = sum_of_minima(circuit_ms);
  e2e.mapped_gates = pass_gates;
  e2e.swaps = pass_swaps;
  e2e.artifact_bytes = artifact_bytes;
  result.metrics = end_to_end_metrics(e2e);
  return result;
}

}  // namespace perfbench
