#include "rail.hpp"

#include "harness.hpp"

namespace perfbench {

decisive::sim::BuiltCircuit make_rail(std::uint64_t seed) {
  SeededRandom random(seed % kRailSeedClasses);
  const auto perturbed = [&](double nominal) { return nominal * (0.95 + 0.1 * random.unit()); };
  decisive::sim::BuiltCircuit built;
  decisive::sim::Circuit& c = built.circuit;
  const int vin = c.node("vin");
  const int rail = c.node("rail");
  c.add_vsource("V1", vin, 0, 12.0);
  c.add_current_sensor("CS", vin, rail);
  built.observables.push_back("CS");
  for (int s = 0; s < kRailStages; ++s) {
    const std::string id = std::to_string(s);
    const int tap = c.node("tap" + id);
    c.add_resistor("R" + id, rail, tap, perturbed(100.0 + s));
    c.add_diode("D" + id, tap, 0);
    c.add_resistor("RL" + id, tap, 0, perturbed(1000.0));
    c.add_voltage_sensor("VS" + id, tap, 0);
    built.observables.push_back("VS" + id);
    built.components.push_back({"R" + id, "Resistor", "R" + id});
    built.components.push_back({"D" + id, "Diode", "D" + id});
  }
  return built;
}

decisive::core::ReliabilityModel rail_reliability() {
  decisive::core::ReliabilityModel reliability;
  reliability.add("Resistor", 5.0, {{"Open", 0.5}, {"Short", 0.3}, {"Drift", 0.2}});
  reliability.add("Diode", 10.0, {{"Open", 0.3}, {"Short", 0.7}});
  return reliability;
}

std::string rail_output(std::string csv, const std::vector<std::string>& warnings) {
  for (const auto& warning : warnings) csv += warning + "\n";
  return csv;
}

}  // namespace perfbench
