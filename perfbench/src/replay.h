// Stage-by-stage replay of service::CompileService::execute for the traced
// run.
//
// The replay calls each layer's public function in the order that
// mapper::map_circuit and CompileService use them (parse, device, cache
// fingerprint / lookup / decode, decompose, place, route, expand + lower,
// depth, fidelity, schedule, translation validation, cache encode / store,
// emit, digest), wrapping every call in a span. It covers the request
// shapes the benchmark sends: compile mode, "direct" or "resilient"
// pipeline with a first attempt that succeeds, no fault injection,
// calibration override, recommendation or SABRE rounds.
//
// Where execute repeats work on the same artifact, the replay does it once:
// a resilient cache hit is validated once (execute validates it in the memo
// lookup and again in the attempt loop), and verify_artifact on the
// resilient pipeline is not re-run over the artifact the attempt loop just
// validated. What execute spends beyond the replay's stages shows up as
// service.unattributed_ms.
#pragma once

#include <string>

#include "cache/cache.h"
#include "mapper/pipeline.h"
#include "service/api.h"
#include "trace.h"

namespace perfbench {

struct ReplayResult {
  bool ok = false;
  std::string error;
  qfs::mapper::MappingResult mapping;
  /// hash128 hex of the canonical QASM of the mapped circuit. Computed
  /// inside the support.digest span when the request wants a digest, after
  /// the replay's spans otherwise (for comparison only).
  std::string digest;
  bool cache_hit = false;
};

ReplayResult replay_execute(const qfs::service::CompileRequest& request,
                            qfs::cache::CompileCache* cache, Tracer& tracer,
                            long long request_id);

/// Canonical digest of a mapped circuit, as CompileService computes it.
std::string mapped_digest(const qfs::circuit::Circuit& mapped);

}  // namespace perfbench
