#include "cache/memo.h"

#include "cache/artifact.h"

namespace qfs::cache {

Fingerprint attempt_fingerprint(const Fingerprint& base,
                                const std::string& attempt_key) {
  FingerprintBuilder builder;
  builder.field("base", base.hex()).field("attempt", attempt_key);
  return builder.finish();
}

mapper::AttemptMemo make_attempt_memo(CompileCache& cache, Fingerprint base) {
  mapper::AttemptMemo memo;
  memo.lookup = [&cache, base](const std::string& attempt_key,
                               mapper::MappingResult* out) {
    auto hit = load_mapping(cache, attempt_fingerprint(base, attempt_key));
    if (!hit) return false;
    *out = std::move(*hit);
    return true;
  };
  memo.store = [&cache, base](const std::string& attempt_key,
                              const mapper::MappingResult& result) {
    store_mapping(cache, attempt_fingerprint(base, attempt_key), result);
  };
  // Semantically corrupt payload: valid serialization, wrong circuit.
  memo.reject = [&cache](const std::string&) { cache.count_corrupt_payload(); };
  return memo;
}

}  // namespace qfs::cache
