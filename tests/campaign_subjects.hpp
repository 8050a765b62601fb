// Campaign subjects and the identity matrix shared by the campaign tests.
//
// The load-bearing property of the campaign solve context is byte-identity:
// a campaign must emit exactly the bytes of the naive one-dense-solve-per-
// fault campaign — same CSV, same warnings — for any job count and either
// factor kind, because every gate in the context hands doubtful faults back
// to the naive path. expect_identity_matrix() checks that on one subject.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/sim/builder.hpp"

namespace campaign_subjects {

using namespace decisive;

/// The `reproduce` tool's supply-rail specimen: the rail is pinned by the source, so
/// most faults perturb only their own decoupled tap — prime low-rank
/// territory with diodes in the loop. The source's Open/Short delete its
/// branch unknown (structural), and its Drift moves every diode at once —
/// too many update terms for the low-rank branch, which hands it on. Every
/// `stride`-th stage's resistor and diode carry failure modes (5 faults per
/// listed stage); a stride above 1 keeps the naive reference, which pays an
/// O(n^3) factorisation per Newton iteration per fault, affordable on the
/// big rails while every campaign still solves the full-size system.
inline sim::BuiltCircuit make_rail(int stages, int stride = 1) {
  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  built.components.push_back({"V1", "Source", "V1"});
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, 100.0 + s);
    c.add_diode("D" + id, tap, 0);
    c.add_resistor("RL" + id, tap, 0, 1000.0);
    c.add_voltage_sensor("VS" + id, tap, 0);
    built.observables.push_back("VS" + id);
    if (s % stride != 0) continue;
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    built.components.push_back({"D" + id, "Diode", "D" + id});
  }
  return built;
}

inline core::ReliabilityModel rail_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Open", 0.3}, {"Short", 0.2}, {"Drift", 0.5}});
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  return reliability;
}

/// Seeded randomized supply rail big enough to cross the sparse dimension
/// threshold: a pinned rail feeding `stages` taps whose load is randomly a
/// diode, an inductor (a DC branch unknown — deleted by its Open/Short
/// faults, the partial-refactorisation specimen), or a plain resistor. The
/// source itself carries structural Open/Short faults.
inline sim::BuiltCircuit random_rail(std::uint32_t seed, int stages) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> series(50.0, 500.0);
  std::uniform_real_distribution<double> load(500.0, 5000.0);
  std::uniform_int_distribution<int> kind(0, 2);

  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  built.components.push_back({"V1", "Source", "V1"});
  for (int s = 0; s < stages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, series(rng));
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    switch (kind(rng)) {
      case 0:
        c.add_diode("D" + id, tap, 0);
        built.components.push_back({"D" + id, "Diode", "D" + id});
        break;
      case 1:
        c.add_inductor("L" + id, tap, 0, 1e-3);
        built.components.push_back({"L" + id, "Inductor", "L" + id});
        break;
      default:
        break;
    }
    c.add_resistor("RL" + id, tap, 0, load(rng));
    if (s % 4 == 0) {
      c.add_voltage_sensor("VS" + id, tap, 0);
      built.observables.push_back("VS" + id);
    }
  }
  return built;
}

inline core::ReliabilityModel random_rail_reliability() {
  core::ReliabilityModel reliability;
  reliability.add("Source", 5.0, {{"Open", 0.3}, {"Short", 0.2}, {"Drift", 0.5}});
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  reliability.add("Inductor", 8.0, {{"Open", 0.6}, {"Short", 0.4}});
  return reliability;
}

struct CampaignOutput {
  std::string csv;
  std::vector<std::string> warnings;
};

inline CampaignOutput run_campaign(const sim::BuiltCircuit& built,
                                   const core::ReliabilityModel& reliability,
                                   const core::CircuitFmeaOptions& options) {
  const auto result = core::analyze_circuit(built, reliability, nullptr, options);
  return CampaignOutput{write_csv(result.to_csv()), result.warnings};
}

/// The naive reference of `options`: one dense solve per fault, no context.
inline core::CircuitFmeaOptions naive(core::CircuitFmeaOptions options) {
  options.batch = false;
  options.sparse = false;
  options.solver.sparse = false;
  options.jobs = 1;
  return options;
}

/// One row of the identity matrix: the default campaign and the dense-factor
/// one (`sparse = false`), each at jobs 1, 4 and 8, must emit the naive
/// reference's CSV and warnings for this subject.
inline void expect_identity_matrix(const std::string& subject, const sim::BuiltCircuit& built,
                                   const core::ReliabilityModel& reliability,
                                   core::CircuitFmeaOptions options = {}) {
  const CampaignOutput reference = run_campaign(built, reliability, naive(options));
  for (const bool sparse : {true, false}) {
    for (const int jobs : {1, 4, 8}) {
      options.sparse = sparse;
      options.jobs = jobs;
      const CampaignOutput run = run_campaign(built, reliability, options);
      EXPECT_EQ(run.csv, reference.csv)
          << subject << ": FMEDA diverged at sparse=" << sparse << " jobs=" << jobs;
      EXPECT_EQ(run.warnings, reference.warnings)
          << subject << ": warnings diverged at sparse=" << sparse << " jobs=" << jobs;
    }
  }
}

}  // namespace campaign_subjects
