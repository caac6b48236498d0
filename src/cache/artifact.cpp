#include "cache/artifact.h"

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "circuit/flat.h"

namespace qfs::cache {

namespace {

constexpr char kMagic[4] = {'Q', 'F', 'S', 'A'};
/// Bump together with kCacheVersionSalt whenever the layout changes.
constexpr std::uint32_t kFormatVersion = 2;
/// Widest register the codec carries. Operands are distinct and in range,
/// so this also bounds a barrier's operand count, which is what makes the
/// 16-bit count field exact.
constexpr std::uint32_t kMaxQubits = 0xFFFF;
/// Smallest encoded gate (op byte + operand count), used to bound the gate
/// count by the payload size before anything is allocated.
constexpr std::size_t kMinGateBytes = 3;

/// Fixed-width little-endian appender.
class Writer {
 public:
  template <typename T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void i32(int v) { put(static_cast<std::uint32_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::string_view s) { out_.append(s); }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian cursor: every read reports truncation
/// instead of running past the end.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  template <typename T>
  bool get(T& v) {
    if (remaining() < sizeof(T)) return false;
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      x |= std::uint64_t{static_cast<unsigned char>(in_[pos_ + i])} << (8 * i);
    }
    v = static_cast<T>(x);
    pos_ += sizeof(T);
    return true;
  }
  bool i32(int& v) {
    std::uint32_t bits = 0;
    if (!get(bits)) return false;
    v = static_cast<std::int32_t>(bits);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!get(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool bytes(std::size_t n, std::string& out) {
    if (remaining() < n) return false;
    out.assign(in_.substr(pos_, n));
    pos_ += n;
    return true;
  }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

qfs::Status bad(const std::string& what) {
  return qfs::parse_error("artifact: " + what);
}

void write_layout(Writer& w, const std::vector<int>& layout) {
  w.put(static_cast<std::uint32_t>(layout.size()));
  for (int p : layout) w.i32(p);
}

qfs::Status read_layout(Reader& r, std::vector<int>& out) {
  std::uint32_t n = 0;
  if (!r.get(n) || r.remaining() / 4 < n) return bad("truncated layout");
  out.resize(n);
  for (int& p : out) {
    if (!r.i32(p)) return bad("truncated layout");
  }
  return qfs::Status::ok();
}

/// Decode one gate, checking its shape before circuit::make_gate (which
/// asserts on contract violations — a cache read must never abort).
/// `seen[q] == stamp` marks operands already used by this gate.
qfs::Status read_gate(Reader& r, circuit::Circuit& c,
                      std::vector<std::uint32_t>& seen, std::uint32_t stamp) {
  std::uint8_t op = 0;
  std::uint16_t count = 0;
  if (!r.get(op) || !r.get(count)) return bad("truncated gate");
  if (op >= circuit::kNumOps) return bad("unknown op byte");
  const circuit::GateKind kind = circuit::to_gate_kind(circuit::Op{op});
  const int arity = circuit::gate_arity(kind);
  if (arity != 0 ? count != arity : count == 0) {
    return bad("wrong operand count");
  }
  std::vector<int> qubits(count);
  for (int& q : qubits) {
    if (!r.i32(q)) return bad("truncated gate operands");
    if (q < 0 || q >= c.num_qubits()) return bad("qubit operand out of range");
    if (seen[static_cast<std::size_t>(q)] == stamp) {
      return bad("repeated qubit operand");
    }
    seen[static_cast<std::size_t>(q)] = stamp;
  }
  std::vector<double> params(
      static_cast<std::size_t>(circuit::gate_param_count(kind)));
  for (double& p : params) {
    if (!r.f64(p)) return bad("truncated gate parameters");
  }
  c.add(circuit::Gate{kind, std::move(qubits), std::move(params)});
  return qfs::Status::ok();
}

}  // namespace

std::string serialize_mapping_result(const mapper::MappingResult& result) {
  Writer w;
  w.bytes(std::string_view(kMagic, sizeof kMagic));
  w.put(kFormatVersion);
  w.put(static_cast<std::uint32_t>(result.mapped.num_qubits()));
  w.put(static_cast<std::uint32_t>(result.mapped.name().size()));
  w.bytes(result.mapped.name());
  w.put(static_cast<std::uint32_t>(result.mapped.gates().size()));
  for (const auto& g : result.mapped.gates()) {
    w.put(static_cast<std::uint8_t>(circuit::to_op(g.kind)));
    w.put(static_cast<std::uint16_t>(g.qubits.size()));
    for (int q : g.qubits) w.i32(q);
    for (double p : g.params) w.f64(p);
  }
  write_layout(w, result.initial_layout);
  write_layout(w, result.final_layout);
  w.i32(result.swaps_inserted);
  w.i32(result.gates_before);
  w.i32(result.gates_after);
  w.f64(result.gate_overhead_pct);
  w.i32(result.depth_before);
  w.i32(result.depth_after);
  for (double v : {result.depth_overhead_pct, result.fidelity_before,
                   result.fidelity_after, result.log_fidelity_before,
                   result.log_fidelity_after, result.fidelity_decrease_pct,
                   result.latency_before_ns, result.latency_after_ns,
                   result.latency_overhead_pct}) {
    w.f64(v);
  }
  return w.take();
}

qfs::StatusOr<mapper::MappingResult> deserialize_mapping_result(
    const std::string& payload) {
  Reader r(payload);
  std::string magic;
  std::uint32_t version = 0;
  if (!r.bytes(sizeof kMagic, magic) ||
      magic != std::string_view(kMagic, sizeof kMagic) || !r.get(version) ||
      version != kFormatVersion) {
    return bad("bad magic");
  }
  std::uint32_t num_qubits = 0;
  if (!r.get(num_qubits) || num_qubits > kMaxQubits) {
    return bad("bad qubit count");
  }
  std::uint32_t name_size = 0;
  std::string name;
  if (!r.get(name_size) || !r.bytes(name_size, name)) return bad("bad name");
  std::uint32_t num_gates = 0;
  if (!r.get(num_gates) || r.remaining() / kMinGateBytes < num_gates) {
    return bad("bad gate count");
  }

  mapper::MappingResult result;
  result.mapped =
      circuit::Circuit(static_cast<int>(num_qubits), std::move(name));
  std::vector<std::uint32_t> seen(num_qubits, 0);
  for (std::uint32_t i = 0; i < num_gates; ++i) {
    if (auto s = read_gate(r, result.mapped, seen, i + 1); !s.is_ok()) {
      return s;
    }
  }
  if (auto s = read_layout(r, result.initial_layout); !s.is_ok()) return s;
  if (auto s = read_layout(r, result.final_layout); !s.is_ok()) return s;

  bool ok = r.i32(result.swaps_inserted) && r.i32(result.gates_before) &&
            r.i32(result.gates_after) && r.f64(result.gate_overhead_pct) &&
            r.i32(result.depth_before) && r.i32(result.depth_after);
  for (double* slot :
       {&result.depth_overhead_pct, &result.fidelity_before,
        &result.fidelity_after, &result.log_fidelity_before,
        &result.log_fidelity_after, &result.fidelity_decrease_pct,
        &result.latency_before_ns, &result.latency_after_ns,
        &result.latency_overhead_pct}) {
    ok = ok && r.f64(*slot);
  }
  if (!ok) return bad("truncated metrics");
  if (r.remaining() != 0) return bad("trailing bytes");
  return result;
}

std::optional<mapper::MappingResult> load_mapping(CompileCache& cache,
                                                  const Fingerprint& key) {
  auto payload = cache.lookup(key);
  if (!payload) return std::nullopt;
  auto decoded = deserialize_mapping_result(*payload);
  if (!decoded.is_ok()) {
    cache.count_corrupt_payload();
    return std::nullopt;
  }
  return std::move(decoded).value();
}

void store_mapping(CompileCache& cache, const Fingerprint& key,
                   const mapper::MappingResult& result) {
  cache.store(key, serialize_mapping_result(result));
}

}  // namespace qfs::cache
