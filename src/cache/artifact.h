// Compilation-artifact serialization: MappingResult <-> cache payload.
//
// A length-prefixed binary format of fixed-width little-endian fields
// (layout in DESIGN.md §10). Gates are stored as circuit::Op bytes with
// int32 operands and parameters as exact IEEE-754 bits, so a warm-cache
// compile reproduces the cold run byte for byte — metrics, layouts and the
// mapped circuit included — and decoding never reparses text.
// Deserialization never asserts on malformed bytes: every structural
// violation (truncation, unknown op, wrong arity, bad operand, trailing
// bytes) comes back as a parse_error Status, which callers treat as a
// cache miss (recompute and overwrite).
#pragma once

#include <optional>
#include <string>

#include "cache/cache.h"
#include "mapper/pipeline.h"
#include "support/status.h"

namespace qfs::cache {

std::string serialize_mapping_result(const mapper::MappingResult& result);

qfs::StatusOr<mapper::MappingResult> deserialize_mapping_result(
    const std::string& payload);

/// Cache-aware convenience: lookup + decode. A payload that fails decoding
/// is counted corrupt and reported as a miss.
std::optional<mapper::MappingResult> load_mapping(CompileCache& cache,
                                                  const Fingerprint& key);

/// Encode + store.
void store_mapping(CompileCache& cache, const Fingerprint& key,
                   const mapper::MappingResult& result);

}  // namespace qfs::cache
