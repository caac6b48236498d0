// Property checks on compiled artifacts. Each check is computed by the
// benchmark from the device description and the source circuit, never
// compared against a stored copy of earlier output.
#pragma once

#include <string>

#include "circuit/circuit.h"
#include "common.h"
#include "device/device.h"
#include "mapper/pipeline.h"

namespace perfbench {

/// Check one mapped circuit against its source:
///  - every two-qubit gate lies on an edge of the device's coupling list;
///  - every unitary gate kind is in the device gate set;
///  - two-qubit gates after mapping == two-qubit gates of the decomposed
///    source + 3 x swaps_inserted;
///  - layouts cover the source qubits and are injective and in range;
///  - zero SWAPs gives a fidelity decrease of exactly 0;
///  - the translation validator passes;
///  - Clifford sources keep their stabilizer state.
/// Returns true when the source is Clifford and the simulation ran.
bool check_mapping(Checker& checker, const std::string& label,
                   const qfs::circuit::Circuit& source,
                   const qfs::device::Device& device,
                   const qfs::mapper::MappingResult& mapping);

}  // namespace perfbench
