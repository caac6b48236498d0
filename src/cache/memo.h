// Adapter binding a CompileCache to mapper::compile_resilient's per-attempt
// memo hooks.
//
// The mapper hands over only the attempt triple "placer|router|seed"; the
// adapter combines it with a base fingerprint covering the canonical input
// circuit, the device and the pipeline configuration, so two different
// inputs can never share an attempt entry.
//
// The adapter does not validate hits itself: compile_resilient proves every
// memoized artifact once with its per-attempt validation (translation
// validator included) and calls `reject` on one that fails — a payload that
// deserializes cleanly but no longer computes the source circuit. The
// adapter counts that as a corrupt payload; the rung recompiles fresh and
// the store overwrites the bad entry.
#pragma once

#include "cache/cache.h"
#include "cache/fingerprint.h"
#include "mapper/pipeline.h"

namespace qfs::cache {

/// Hooks memoizing successful attempts of one (circuit, device, pipeline)
/// combination in `cache`. The returned object owns closures that reference
/// `cache`; it must not outlive it. `base` should come from
/// compile_fingerprint over the resilient options' base configuration.
mapper::AttemptMemo make_attempt_memo(CompileCache& cache, Fingerprint base);

/// The cache key of one attempt: base fingerprint x attempt triple.
Fingerprint attempt_fingerprint(const Fingerprint& base,
                                const std::string& attempt_key);

}  // namespace qfs::cache
