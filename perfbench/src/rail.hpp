// The rail_campaign subject: a seeded supply rail with 128 diode-clamped
// stages and 640 fault tasks, shared by the workload and by the tool that
// records the dense reference digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decisive/core/reliability.hpp"
#include "decisive/sim/builder.hpp"

namespace perfbench {

inline constexpr int kRailStages = 128;
/// Rail inputs are drawn from `seed % kRailSeedClasses`; a dense reference
/// digest is recorded for every class.
inline constexpr std::uint64_t kRailSeedClasses = 256;

/// A 12 V supply and current sensor feeding `kRailStages` stages of a
/// series resistor into a diode-clamped tap with a load resistor and a
/// voltage sensor. The seed perturbs every resistor value by up to ±5 %.
decisive::sim::BuiltCircuit make_rail(std::uint64_t seed);

/// Resistor Open/Short/Drift and diode Open/Short.
decisive::core::ReliabilityModel rail_reliability();

/// The bytes the rail output check compares: the FMEDA CSV, then every
/// warning on its own line.
std::string rail_output(std::string csv, const std::vector<std::string>& warnings);

}  // namespace perfbench
