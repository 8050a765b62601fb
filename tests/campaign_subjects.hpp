// Campaign subjects and the identity matrix shared by the campaign tests.
//
// The load-bearing property of the campaign solve context is byte-identity:
// a campaign must emit exactly the bytes of the naive one-dense-solve-per-
// fault campaign — same CSV, same warnings — for any job count and either
// factor kind, because every gate in the context hands doubtful faults back
// to the naive path. expect_identity_matrix() checks that on one subject.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
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

/// Seeded small general netlist, the fast path's differential subject away
/// from rails. Every element is a component of its own kind's type.
///  - A spanning tree over 3–7 nodes of resistors, inductors, closed
///    switches and current-sensed branches. Inductors (0 V at DC) sit only on
///    tree edges, so they close no loop.
///  - Meshes and bridges on top: resistors, switches, diodes that close loops
///    and anti-parallel diode pairs.
///  - One to three sources. Each voltage source drives the network through
///    its own series resistor; the first one through a current sensor too.
///    Each current source has a parallel resistor, so its current always has
///    a path.
///  - MCU loads, voltage sensors, and often a capacitor-isolated island that
///    floats at DC.
/// Values stay within 1 Ω–1 MΩ. Faults then open tree edges, strand
/// sources behind reverse-biased diodes and tie the island in: systems whose
/// conditioning the fast path has to notice.
inline sim::BuiltCircuit random_general_circuit(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(rng));
  };

  sim::BuiltCircuit built;
  sim::Circuit& c = built.circuit;
  int serial = 0;
  const auto named = [&](const char* type, const char* prefix) {
    std::string name = prefix + std::to_string(serial++);
    built.components.push_back({name, type, name});
    return name;
  };
  const auto resistor = [&](int a, int b, double lo, double hi) {
    c.add_resistor(named("Resistor", "R"), a, b, log_uniform(lo, hi));
  };
  const auto diode = [&](int a, int b) { c.add_diode(named("Diode", "D"), a, b); };
  const auto voltage_sensor = [&](int a, int b) {
    const std::string name = named("VoltageSensor", "VS");
    c.add_voltage_sensor(name, a, b);
    built.observables.push_back(name);
  };
  const auto current_sensor = [&](int a, int b) {
    const std::string name = named("CurrentSensor", "CS");
    c.add_current_sensor(name, a, b);
    built.observables.push_back(name);
  };

  std::vector<int> nodes{0};
  const int main_nodes = pick(3, 7);
  for (int i = 0; i < main_nodes; ++i) nodes.push_back(c.make_node());
  const auto any_node = [&] { return nodes[static_cast<std::size_t>(pick(0, main_nodes))]; };
  const auto live_node = [&] { return nodes[static_cast<std::size_t>(pick(1, main_nodes))]; };
  const auto other_node = [&](int a) {  // any node but `a` (ground when the draw hits `a`)
    const int b = any_node();
    return b == a ? 0 : b;
  };

  // Spanning tree of DC-solid edges: every node has a DC path to ground, so
  // the nominal system is well conditioned.
  for (int i = 1; i <= main_nodes; ++i) {
    const int node = nodes[static_cast<std::size_t>(i)];
    const int parent = nodes[static_cast<std::size_t>(pick(0, i - 1))];
    switch (pick(0, 9)) {
      case 0:
        c.add_switch(named("Switch", "SW"), node, parent, true);
        break;
      case 1:
        c.add_inductor(named("Inductor", "L"), node, parent, log_uniform(1e-6, 1.0));
        break;
      case 2: {
        const int mid = c.make_node();
        current_sensor(node, mid);
        resistor(mid, parent, 1.0, 1e4);
        break;
      }
      default:
        resistor(node, parent, 10.0, 1e5);
        break;
    }
  }

  // Meshes and bridges.
  for (int extra = pick(1, 4); extra > 0; --extra) {
    const int a = live_node();
    const int b = other_node(a);
    switch (pick(0, 9)) {
      case 0:
      case 1:
        diode(a, b);
        break;
      case 2:
        diode(a, b);
        diode(b, a);
        break;
      case 3:
        c.add_switch(named("Switch", "SW"), a, b, pick(0, 1) != 0);
        break;
      default:
        resistor(a, b, 1.0, 1e6);
        break;
    }
  }

  // Sources: the first is a voltage source.
  const int sources = pick(1, 3);
  for (int s = 0; s < sources; ++s) {
    if (s == 0 || pick(0, 1) == 0) {
      const int plus = c.make_node();
      c.add_vsource(named("VSource", "V"), plus, pick(0, 2) == 0 ? live_node() : 0,
                    log_uniform(1.0, 12.0));
      int feed = plus;
      if (s == 0) {
        feed = c.make_node();
        current_sensor(plus, feed);
      }
      resistor(feed, live_node(), 1.0, 1e3);
    } else {
      const int a = live_node();
      const int b = other_node(a);
      c.add_isource(named("ISource", "I"), a, b, log_uniform(1e-5, 1e-3));
      resistor(a, b, 100.0, 1e4);
    }
  }

  for (int m = pick(0, 2); m > 0; --m) {
    const std::string name = named("Mcu", "MC");
    c.add_mcu(name, live_node(), 0, log_uniform(100.0, 1e5));
    built.observables.push_back(name);
  }
  for (int v = pick(1, 3); v > 0; --v) {
    const int a = live_node();
    voltage_sensor(a, other_node(a));
  }

  // A passive island coupled to the network only through capacitors: it
  // floats at 0 V, held by gmin alone, until a capacitor Short ties it in.
  if (pick(0, 2) != 0) {
    const int i1 = c.make_node();
    const int i2 = c.make_node();
    resistor(i1, i2, 1.0, 1e6);
    if (pick(0, 1) == 0) diode(i2, i1);
    c.add_capacitor(named("Capacitor", "C"), i1, live_node(), log_uniform(1e-9, 1e-3));
    c.add_capacitor(named("Capacitor", "C"), i2, pick(0, 1) == 0 ? 0 : live_node(),
                    log_uniform(1e-9, 1e-3));
    voltage_sensor(i1, pick(0, 1) == 0 ? 0 : i2);
  }
  return built;
}

/// Every element kind gets every fault kind, so the not-applicable rows
/// (RAM failure on a resistor, any fault on an observation point) are part
/// of each campaign too.
inline core::ReliabilityModel random_general_reliability() {
  core::ReliabilityModel reliability;
  double fit = 1.0;
  for (const char* type : {"Resistor", "Capacitor", "Inductor", "Diode", "VSource", "ISource",
                           "CurrentSensor", "VoltageSensor", "Switch", "Mcu"}) {
    reliability.add(type, fit++, {{"Open", 0.25}, {"Short", 0.25}, {"Drift", 0.2},
                                  {"Stuck Off", 0.15}, {"RAM Failure", 0.15}});
  }
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

/// One campaign configuration against the naive reference's CSV and
/// warnings.
inline void expect_matches_reference(const std::string& subject, const CampaignOutput& reference,
                                     const sim::BuiltCircuit& built,
                                     const core::ReliabilityModel& reliability,
                                     const core::CircuitFmeaOptions& options) {
  const CampaignOutput run = run_campaign(built, reliability, options);
  EXPECT_EQ(run.csv, reference.csv) << subject << ": FMEDA diverged at sparse=" << options.sparse
                                    << " jobs=" << options.jobs;
  EXPECT_EQ(run.warnings, reference.warnings)
      << subject << ": warnings diverged at sparse=" << options.sparse
      << " jobs=" << options.jobs;
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
      expect_matches_reference(subject, reference, built, reliability, options);
    }
  }
}

}  // namespace campaign_subjects
