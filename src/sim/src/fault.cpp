#include "decisive/sim/fault.hpp"

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::sim {

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::Open: return "Open";
    case FaultKind::Short: return "Short";
    case FaultKind::StuckOff: return "StuckOff";
    case FaultKind::Drift: return "Drift";
    case FaultKind::RamFailure: return "RamFailure";
  }
  return "Unknown";
}

FaultKind fault_kind_from_name(std::string_view name) {
  const std::string n = to_lower(trim(name));
  if (n == "open" || n == "open circuit" || n == "loss of function" || n == "loss") {
    return FaultKind::Open;
  }
  if (n == "short" || n == "short circuit") return FaultKind::Short;
  if (n == "stuck" || n == "stuck-off" || n == "stuck off" || n == "no output") {
    return FaultKind::StuckOff;
  }
  if (n == "drift" || n == "parameter drift" || n == "lower frequency" ||
      n == "higher frequency" || n == "jitter") {
    return FaultKind::Drift;
  }
  if (n == "ram failure" || n == "ram" || n == "memory failure" || n == "bit flip") {
    return FaultKind::RamFailure;
  }
  throw AnalysisError("unknown failure mode name '" + std::string(name) + "'");
}

Element faulted_element(const Element& element, FaultKind kind, double drift_factor,
                        double open_resistance, double short_resistance) {
  Element e = element;
  switch (kind) {
    case FaultKind::Open:
      switch (e.kind) {
        case ElementKind::VSource:
        case ElementKind::ISource:
          // An open source no longer drives the circuit: replace with a
          // huge resistance (series break).
          e.kind = ElementKind::Resistor;
          e.value = open_resistance;
          break;
        case ElementKind::CurrentSensor:
          throw AnalysisError("cannot open-fault the observation point '" + e.name + "'");
        case ElementKind::VoltageSensor:
          throw AnalysisError("cannot open-fault the observation point '" + e.name + "'");
        default:
          e.kind = ElementKind::Resistor;
          e.value = open_resistance;
          e.closed = true;
          break;
      }
      break;
    case FaultKind::Short:
      if (e.kind == ElementKind::CurrentSensor || e.kind == ElementKind::VoltageSensor) {
        throw AnalysisError("cannot short-fault the observation point '" + e.name + "'");
      }
      e.kind = ElementKind::Resistor;
      e.value = short_resistance;
      break;
    case FaultKind::StuckOff:
      if (e.kind == ElementKind::VSource || e.kind == ElementKind::ISource) {
        e.value = 0.0;
      } else if (e.kind == ElementKind::Mcu) {
        e.ram_ok = false;
      } else {
        throw AnalysisError("StuckOff applies to sources and MCUs, not '" +
                            std::string(to_string(e.kind)) + "'");
      }
      break;
    case FaultKind::Drift:
      switch (e.kind) {
        case ElementKind::Resistor:
        case ElementKind::Capacitor:
        case ElementKind::Inductor:
        case ElementKind::VSource:
        case ElementKind::ISource:
        case ElementKind::Mcu:
          if (drift_factor <= 0.0) {
            throw AnalysisError("drift factor must be positive");
          }
          e.value *= drift_factor;
          break;
        default:
          throw AnalysisError("Drift does not apply to '" + std::string(to_string(e.kind)) +
                              "'");
      }
      break;
    case FaultKind::RamFailure:
      if (e.kind != ElementKind::Mcu) {
        throw AnalysisError("RamFailure applies only to MCU elements");
      }
      e.ram_ok = false;
      break;
  }
  return e;
}

Circuit inject_fault(const Circuit& circuit, const Fault& fault, double open_resistance,
                     double short_resistance) {
  Circuit faulted = circuit;
  Element& e = faulted.get(fault.element);
  e = faulted_element(e, fault.kind, fault.drift_factor, open_resistance, short_resistance);
  return faulted;
}

}  // namespace decisive::sim
