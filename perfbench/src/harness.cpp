#include <sys/resource.h>

#include <utility>

#include "replay.h"
#include "support/rng.h"
#include "workloads.h"
#include "workloads/random_circuit.h"

namespace perfbench {

using qfs::service::CompileRequest;
using qfs::service::CompileResponse;

double peak_rss_mb_self() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

double peak_rss_mb_children() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<qfs::workloads::Benchmark> seeded_paper_suite(std::uint64_t seed) {
  qfs::Rng suite_rng(2022);
  std::vector<qfs::workloads::Benchmark> suite =
      qfs::workloads::paper_suite(suite_rng);
  qfs::Rng rng(qfs::derive_seed(seed, 0x5171e));
  for (auto& b : suite) {
    if (b.family != qfs::workloads::Family::kRandom) continue;
    const auto& c = b.circuit;
    qfs::workloads::RandomCircuitSpec spec;
    spec.num_qubits = c.num_qubits();
    spec.num_gates = c.gate_count();
    spec.two_qubit_fraction =
        static_cast<double>(c.two_qubit_gate_count()) / c.gate_count();
    b.circuit = qfs::workloads::random_circuit(spec, rng);
    b.name = b.circuit.name();
  }
  return suite;
}

qfs::circuit::Circuit large_circuit(std::uint64_t seed) {
  qfs::workloads::RandomCircuitSpec spec;
  spec.num_qubits = kLargeQubits;
  spec.num_gates = kLargeGates;
  spec.two_qubit_fraction = 0.5;
  qfs::Rng rng(qfs::derive_seed(seed, 0x1a46e));
  return qfs::workloads::random_circuit(spec, rng);
}

CompileRequest qfsc_request(const std::string& qasm) {
  CompileRequest request;
  request.qasm = qasm;
  request.source_name = "large.qasm";
  request.device = "surface97";
  request.options.placer = "trivial";
  request.options.router = "lookahead";
  request.options.compute_latency = true;
  request.seed = 2022;
  request.max_attempts = 4;
  return request;
}

CompileResponse traced_request(const qfs::service::CompileService& service,
                               const CompileRequest& request,
                               ReplayCaches caches, Tracer& tracer,
                               TraceLedger& ledger, Checker& checker,
                               const std::string& label) {
  const long long rid = ledger.requests++;
  Clock::time_point t0 = Clock::now();
  CompileResponse response = service.execute(request);
  const double execute_ms = ms_since(t0);
  if (!checker.expect(response.ok(), label + ": " + response.error_message)) {
    return response;
  }

  const std::string digest = response.mapped_digest.empty()
                                 ? mapped_digest(response.mapping.mapped)
                                 : response.mapped_digest;
  // Each replay's artifact is compared and dropped before the next stage
  // runs, so the replays do not run with more live memory than execute.
  auto matches = [&](ReplayResult r) {
    if (!checker.expect(r.ok, label + ": replay failed: " + r.error)) {
      return false;
    }
    checker.expect(r.digest == digest, label + ": replay digest " + r.digest +
                                           " != execute digest " + digest);
    checker.expect(r.mapping.swaps_inserted == response.mapping.swaps_inserted,
                   label + ": replay SWAP count differs from execute");
    checker.expect(r.cache_hit == response.cache_hit,
                   label + ": replay cache outcome differs from execute");
    return true;
  };

  // The two replays take turns going first, so that neither always runs
  // on memory and caches the other has just warmed.
  Tracer off(false);
  const std::size_t first_span = tracer.spans().size();
  auto replay = [&](bool traced, double& elapsed_ms) {
    const Clock::time_point start = Clock::now();
    ReplayResult r =
        traced ? replay_execute(request, caches.traced, tracer, rid)
               : replay_execute(request, caches.untraced, off, rid);
    elapsed_ms = ms_since(start);
    return matches(std::move(r));
  };
  const bool traced_first = rid % 2 == 1;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  for (const bool traced : {traced_first, !traced_first}) {
    if (!replay(traced, traced ? traced_ms : untraced_ms)) return response;
  }

  // Time inside the replay's layer spans (everything but its root).
  double layer_ms = 0.0;
  const auto& spans = tracer.spans();
  std::vector<double> child_ms(spans.size() - first_span, 0.0);
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= static_cast<int>(first_span)) {
      child_ms[static_cast<std::size_t>(parent) - first_span] +=
          spans[i].end_ms - spans[i].start_ms;
    }
  }
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "replay") continue;
    layer_ms += spans[i].end_ms - spans[i].start_ms - child_ms[i - first_span];
  }
  ledger.execute_ms.push_back(execute_ms);
  ledger.unattributed_ms.push_back(execute_ms - layer_ms);
  ledger.overhead_ms.push_back(traced_ms - untraced_ms);
  return response;
}

namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const TraceLedger& ledger) {
  const auto totals = tracer.layer_totals();
  auto per_call = [&](const char* layer) {
    auto it = totals.find(layer);
    if (it == totals.end() || it->second.spans == 0) return 0.0;
    return it->second.self_ms / static_cast<double>(it->second.spans);
  };
  auto counter = [&](const char* name) {
    auto it = tracer.counters().find(name);
    return it == tracer.counters().end() ? 0.0 : it->second;
  };
  auto per_request = [&](const char* name) {
    return ledger.requests == 0
               ? 0.0
               : counter(name) / static_cast<double>(ledger.requests);
  };
  auto route_calls = totals.find("mapper.route");

  std::vector<Metric> out;
  for (const char* layer :
       {"qasm.parse", "qasm.emit", "support.digest", "device.resolve",
        "cache.fingerprint", "cache.lookup", "cache.decode", "cache.encode",
        "cache.store", "compiler.decompose", "mapper.place", "mapper.route",
        "compiler.expand_lower", "circuit.depth", "device.fidelity",
        "compiler.schedule", "analysis.validate"}) {
    out.push_back({std::string(layer) + "_ms", per_call(layer), "ms"});
  }
  out.push_back({"cache.hits", per_request("cache.hits"), "count"});
  out.push_back({"cache.misses", per_request("cache.misses"), "count"});
  out.push_back({"mapper.swaps",
                 route_calls == totals.end()
                     ? 0.0
                     : counter("mapper.swaps") /
                           static_cast<double>(route_calls->second.spans),
                 "count"});
  out.push_back({"service.execute_ms", median(ledger.execute_ms), "ms"});
  out.push_back({"service.unattributed_ms", median(ledger.unattributed_ms), "ms"});
  out.push_back({"server.queue_ms", mean(ledger.server_queue_ms), "ms"});
  out.push_back({"server.total_ms", mean(ledger.server_total_ms), "ms"});
  out.push_back({"client.rtt_ms", mean(ledger.client_rtt_ms), "ms"});
  out.push_back({"client.codec_ms", mean(ledger.client_codec_ms), "ms"});
  out.push_back({"client.transport_ms", mean(ledger.client_transport_ms), "ms"});
  out.push_back({"trace.overhead_ms", median(ledger.overhead_ms), "ms"});
  out.push_back({"trace.requests", static_cast<double>(ledger.requests),
                 "count"});
  return out;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"latency_ms", e.latency_ms, "ms"},
      {"mapped_gates", e.mapped_gates, "gates"},
      {"swaps", e.swaps, "swaps"},
      {"artifact_bytes", e.artifact_bytes, "bytes"},
  };
}

}  // namespace perfbench
