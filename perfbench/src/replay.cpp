#include "replay.h"

#include <cmath>
#include <optional>
#include <utility>

#include "analysis/equiv.h"
#include "cache/artifact.h"
#include "cache/fingerprint.h"
#include "cache/memo.h"
#include "compiler/decompose.h"
#include "compiler/schedule.h"
#include "device/fidelity.h"
#include "mapper/placement.h"
#include "mapper/routing.h"
#include "qasm/parser.h"
#include "qasm/writer.h"
#include "service/service.h"
#include "support/hash.h"
#include "support/rng.h"

namespace perfbench {

using qfs::circuit::Circuit;
using qfs::device::Device;
using qfs::mapper::MappingOptions;
using qfs::mapper::MappingResult;

namespace {

/// map_circuit's "before mapping" fidelity: the device's uniform error
/// model over the decomposed circuit, ignoring connectivity.
double log_fidelity_uniform(const Circuit& circuit, const Device& device) {
  const auto& em = device.error_model();
  double log_f = 0.0;
  for (const auto& g : circuit.gates()) {
    if (!qfs::circuit::is_unitary(g.kind)) continue;
    log_f += g.qubits.size() == 1 ? std::log(em.single_qubit_fidelity())
                                  : std::log(em.two_qubit_fidelity());
  }
  return log_f;
}

/// map_circuit, one layer call per span.
MappingResult map_traced(const Circuit& circuit, const Device& device,
                         const MappingOptions& options, std::uint64_t seed,
                         Tracer& tracer, long long rid) {
  qfs::Rng rng(seed);
  Circuit decomposed;
  {
    ScopedSpan span(tracer, "compiler.decompose", rid);
    decomposed = qfs::compiler::decompose_to_gateset(circuit, device.gateset());
  }
  qfs::mapper::Layout initial;
  {
    ScopedSpan span(tracer, "mapper.place", rid);
    initial = qfs::mapper::make_placer(options.placer)
                  ->place(decomposed, device, rng);
  }
  qfs::mapper::RoutingResult routed;
  {
    ScopedSpan span(tracer, "mapper.route", rid);
    routed = qfs::mapper::make_router(options.router)
                 ->route(decomposed, device, initial, rng);
  }
  tracer.count("mapper.swaps", routed.swaps_inserted);
  MappingResult result;
  {
    ScopedSpan span(tracer, "compiler.expand_lower", rid);
    result.mapped = qfs::compiler::decompose_to_gateset(
        qfs::compiler::expand_swaps(routed.mapped), device.gateset());
  }
  result.initial_layout = initial.initial_segment(circuit.num_qubits());
  result.final_layout =
      routed.final_layout.initial_segment(circuit.num_qubits());
  result.swaps_inserted = routed.swaps_inserted;
  result.gates_before = decomposed.gate_count();
  result.gates_after = result.mapped.gate_count();
  if (result.gates_before > 0) {
    result.gate_overhead_pct =
        100.0 * (result.gates_after - result.gates_before) /
        static_cast<double>(result.gates_before);
  }
  {
    ScopedSpan span(tracer, "circuit.depth", rid);
    result.depth_before = decomposed.depth();
    result.depth_after = result.mapped.depth();
  }
  if (result.depth_before > 0) {
    result.depth_overhead_pct =
        100.0 * (result.depth_after - result.depth_before) /
        static_cast<double>(result.depth_before);
  }
  {
    ScopedSpan span(tracer, "device.fidelity", rid);
    result.log_fidelity_before = log_fidelity_uniform(decomposed, device);
    result.log_fidelity_after =
        qfs::device::estimate_log_gate_fidelity(result.mapped, device);
  }
  result.fidelity_before = std::exp(result.log_fidelity_before);
  result.fidelity_after = std::exp(result.log_fidelity_after);
  result.fidelity_decrease_pct =
      100.0 *
      (1.0 - std::exp(result.log_fidelity_after - result.log_fidelity_before));
  if (options.compute_latency) {
    ScopedSpan span(tracer, "compiler.schedule", rid);
    qfs::compiler::ScheduleOptions sched;
    result.latency_before_ns =
        qfs::compiler::asap_schedule(decomposed, device, sched).makespan_ns();
    result.latency_after_ns =
        qfs::compiler::asap_schedule(result.mapped, device, sched)
            .makespan_ns();
    if (result.latency_before_ns > 0.0) {
      result.latency_overhead_pct =
          100.0 * (result.latency_after_ns - result.latency_before_ns) /
          result.latency_before_ns;
    }
  }
  return result;
}

/// The resilient pipeline's per-attempt validation (translation validator
/// with one finding, plus the fidelity sanity bounds).
bool validate_traced(const Circuit& source, const MappingResult& result,
                     const Device& device, Tracer& tracer, long long rid) {
  qfs::analysis::TranslationArtifact artifact;
  artifact.mapped = &result.mapped;
  artifact.initial_layout = result.initial_layout;
  artifact.final_layout = result.final_layout;
  artifact.swaps_inserted = result.swaps_inserted;
  qfs::analysis::EquivOptions equiv;
  equiv.max_diagnostics = 1;
  bool valid = false;
  {
    ScopedSpan span(tracer, "analysis.validate", rid);
    valid = qfs::analysis::validate_translation(source, device, artifact, equiv)
                .empty();
  }
  return valid && std::isfinite(result.log_fidelity_after) &&
         result.log_fidelity_after <= 1e-9 && result.fidelity_after >= 0.0 &&
         result.fidelity_after <= 1.0 + 1e-9;
}

std::optional<MappingResult> cache_load_traced(qfs::cache::CompileCache& cache,
                                               const qfs::cache::Fingerprint& key,
                                               Tracer& tracer, long long rid) {
  std::optional<std::string> payload;
  {
    ScopedSpan span(tracer, "cache.lookup", rid);
    payload = cache.lookup(key);
  }
  if (!payload) return std::nullopt;
  ScopedSpan span(tracer, "cache.decode", rid);
  auto decoded = qfs::cache::deserialize_mapping_result(*payload);
  if (!decoded.is_ok()) {
    cache.count_corrupt_payload();
    return std::nullopt;
  }
  return std::move(decoded).value();
}

void cache_store_traced(qfs::cache::CompileCache& cache,
                        const qfs::cache::Fingerprint& key,
                        const MappingResult& result, Tracer& tracer,
                        long long rid) {
  std::string payload;
  {
    ScopedSpan span(tracer, "cache.encode", rid);
    payload = qfs::cache::serialize_mapping_result(result);
  }
  ScopedSpan span(tracer, "cache.store", rid);
  cache.store(key, payload);
}

qfs::cache::Fingerprint fingerprint_traced(const Circuit& circuit,
                                           const Device& device,
                                           const MappingOptions& options,
                                           std::uint64_t seed, Tracer& tracer,
                                           long long rid) {
  ScopedSpan span(tracer, "cache.fingerprint", rid);
  std::string canonical;
  {
    ScopedSpan emit(tracer, "qasm.emit", rid);
    canonical = qfs::qasm::to_qasm(circuit);
  }
  return qfs::cache::compile_fingerprint(canonical, device, options, seed);
}

ReplayResult fail(std::string message) {
  ReplayResult out;
  out.error = std::move(message);
  return out;
}

}  // namespace

std::string mapped_digest(const Circuit& mapped) {
  return qfs::hash128(qfs::qasm::to_qasm(mapped)).hex();
}

ReplayResult replay_execute(const qfs::service::CompileRequest& request,
                            qfs::cache::CompileCache* cache, Tracer& tracer,
                            long long rid) {
  if (request.mode != qfs::service::RequestMode::kCompile ||
      !request.fault_spec.empty() || !request.calibration.empty() ||
      !request.calibration_path.empty() || request.recommend ||
      request.emit_timed || request.options.sabre_refinement_rounds > 0 ||
      !request.options.initial_layout.empty() || !request.qasm_path.empty()) {
    return fail("request shape not covered by the replay");
  }
  if (request.cache_policy == qfs::service::CachePolicy::kBypass) {
    cache = nullptr;
  }
  const bool direct = request.pipeline == "direct";
  if (!direct && request.pipeline != "resilient") {
    return fail("unknown pipeline '" + request.pipeline + "'");
  }

  ReplayResult out;
  {
    ScopedSpan root(tracer, "replay", rid);

    Circuit parsed;
    const Circuit* circuit = request.circuit;
    if (circuit == nullptr) {
      ScopedSpan span(tracer, "qasm.parse", rid);
      auto result = qfs::qasm::parse(request.qasm);
      if (!result.is_ok()) return fail(result.status().to_string());
      parsed = std::move(result).value();
      circuit = &parsed;
    }

    Device device;
    {
      ScopedSpan span(tracer, "device.resolve", rid);
      if (request.device_obj != nullptr) {
        device = *request.device_obj;
      } else {
        std::string error;
        if (!qfs::service::CompileService::parse_device(request.device, device,
                                                        error)) {
          return fail(error);
        }
      }
    }
    if (circuit->num_qubits() > device.num_qubits()) {
      return fail("circuit wider than device");
    }
    if (!direct &&
        device.num_qubits() <= qfs::mapper::ResilientOptions{}.equivalence_max_qubits) {
      return fail("small-device equivalence simulation is not replayed");
    }

    const MappingOptions& options = request.options;
    std::optional<qfs::cache::Fingerprint> key;
    if (cache != nullptr) {
      key = fingerprint_traced(*circuit, device, options, request.seed, tracer,
                               rid);
      if (!direct) {
        ScopedSpan span(tracer, "cache.fingerprint", rid);
        const std::string attempt = options.placer + "|" + options.router +
                                    "|" + std::to_string(request.seed);
        key = qfs::cache::attempt_fingerprint(*key, attempt);
      }
      if (auto hit = cache_load_traced(*cache, *key, tracer, rid)) {
        // A resilient hit is proved once before it is trusted.
        if (direct || validate_traced(*circuit, *hit, device, tracer, rid)) {
          out.mapping = std::move(*hit);
          out.cache_hit = true;
        } else {
          cache->count_corrupt_payload();
        }
      }
      tracer.count(out.cache_hit ? "cache.hits" : "cache.misses", 1);
    }

    if (!out.cache_hit) {
      out.mapping =
          map_traced(*circuit, device, options, request.seed, tracer, rid);
      if (!direct &&
          !validate_traced(*circuit, out.mapping, device, tracer, rid)) {
        return fail("first attempt failed validation; the replay covers "
                    "single-attempt compiles only");
      }
      if (cache != nullptr) {
        cache_store_traced(*cache, *key, out.mapping, tracer, rid);
      }
    }

    if (request.want_digest) {
      ScopedSpan span(tracer, "support.digest", rid);
      std::string text;
      {
        ScopedSpan emit(tracer, "qasm.emit", rid);
        text = qfs::qasm::to_qasm(out.mapping.mapped);
      }
      out.digest = qfs::hash128(text).hex();
    }

    if (request.verify_artifact && direct) {
      qfs::analysis::TranslationArtifact artifact;
      artifact.mapped = &out.mapping.mapped;
      artifact.initial_layout = out.mapping.initial_layout;
      artifact.final_layout = out.mapping.final_layout;
      artifact.swaps_inserted = out.mapping.swaps_inserted;
      ScopedSpan span(tracer, "analysis.validate", rid);
      if (qfs::analysis::has_errors(qfs::analysis::validate_translation(
              *circuit, device, artifact))) {
        return fail("artifact failed translation validation");
      }
    }
  }
  if (out.digest.empty()) out.digest = mapped_digest(out.mapping.mapped);
  out.ok = true;
  return out;
}

}  // namespace perfbench
