#include "checks.h"

#include <set>
#include <utility>

#include "analysis/equiv.h"
#include "compiler/decompose.h"
#include "sim/stabilizer.h"

namespace perfbench {

using qfs::circuit::Circuit;

namespace {

long long count_two_qubit(const Circuit& c) {
  long long n = 0;
  for (const auto& g : c.gates()) {
    if (qfs::circuit::is_unitary(g.kind) && g.qubits.size() == 2) ++n;
  }
  return n;
}

bool layout_ok(const std::vector<int>& layout, int source_qubits,
               int device_qubits) {
  if (static_cast<int>(layout.size()) != source_qubits) return false;
  std::set<int> seen;
  for (int p : layout) {
    if (p < 0 || p >= device_qubits || !seen.insert(p).second) return false;
  }
  return true;
}

}  // namespace

bool check_mapping(Checker& checker, const std::string& label,
                   const Circuit& source, const qfs::device::Device& device,
                   const qfs::mapper::MappingResult& m) {
  std::set<std::pair<int, int>> edges;
  for (const auto& [a, b] : device.topology().edge_list()) {
    edges.emplace(std::min(a, b), std::max(a, b));
  }
  const auto& native = device.gateset().kinds();
  long long off_edge = 0;
  long long non_native = 0;
  for (const auto& g : m.mapped.gates()) {
    if (!qfs::circuit::is_unitary(g.kind)) continue;
    if (native.count(g.kind) == 0) ++non_native;
    if (g.qubits.size() == 2) {
      const int a = std::min(g.qubits[0], g.qubits[1]);
      const int b = std::max(g.qubits[0], g.qubits[1]);
      if (edges.count({a, b}) == 0) ++off_edge;
    }
  }
  checker.expect(off_edge == 0, label + ": " + std::to_string(off_edge) +
                                    " two-qubit gates off the coupling list");
  checker.expect(non_native == 0, label + ": " + std::to_string(non_native) +
                                      " gates outside the device gate set");

  const Circuit decomposed =
      qfs::compiler::decompose_to_gateset(source, device.gateset());
  const long long before = count_two_qubit(decomposed);
  const long long after = count_two_qubit(m.mapped);
  checker.expect(after == before + 3LL * m.swaps_inserted,
                 label + ": two-qubit gates " + std::to_string(after) +
                     " != " + std::to_string(before) + " + 3 x " +
                     std::to_string(m.swaps_inserted) + " swaps");

  checker.expect(
      layout_ok(m.initial_layout, source.num_qubits(), device.num_qubits()),
      label + ": initial layout not injective / in range");
  checker.expect(
      layout_ok(m.final_layout, source.num_qubits(), device.num_qubits()),
      label + ": final layout not injective / in range");
  if (m.swaps_inserted == 0) {
    checker.expect(m.fidelity_decrease_pct == 0.0,
                   label + ": zero SWAPs but fidelity decrease " +
                       std::to_string(m.fidelity_decrease_pct) + " %");
  }

  qfs::analysis::TranslationArtifact artifact;
  artifact.mapped = &m.mapped;
  artifact.initial_layout = m.initial_layout;
  artifact.final_layout = m.final_layout;
  artifact.swaps_inserted = m.swaps_inserted;
  checker.expect(qfs::analysis::translation_is_valid(source, device, artifact),
                 label + ": translation validation failed");
  if (qfs::sim::is_clifford_circuit(source)) {
    checker.expect(qfs::sim::clifford_mapping_preserves_state(
                       source, m.mapped, m.initial_layout, m.final_layout),
                   label + ": Clifford state not preserved");
    return true;
  }
  return false;
}

}  // namespace perfbench
