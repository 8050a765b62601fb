#include "decisive/core/circuit_fmea.hpp"

#include <algorithm>
#include <cmath>

#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/campaign.hpp"

namespace decisive::core {

double observable_deviation(double before, double after, double absolute_floor) {
  const double reference = std::max(std::abs(before), absolute_floor);
  return std::abs(after - before) / reference;
}

bool CircuitFmeaOptions::is_goal_observable(const std::string& name) const {
  if (safety_goal_observables.empty()) return true;
  return std::find(safety_goal_observables.begin(), safety_goal_observables.end(), name) !=
         safety_goal_observables.end();
}

FmedaResult analyze_circuit(const sim::BuiltCircuit& built, const ReliabilityModel& reliability,
                            const SafetyMechanismModel* sm_model,
                            const CircuitFmeaOptions& options) {
  // NaN compares false against every deviation (no row safety-related) and
  // a negative threshold makes every row safety-related: either is a wrong
  // verdict, not an analysis.
  if (!std::isfinite(options.relative_threshold) || options.relative_threshold < 0.0) {
    throw AnalysisError("relative threshold must be a finite number >= 0, got " +
                        format_number(options.relative_threshold));
  }
  return CampaignRunner(built, reliability, sm_model, options).run();
}

}  // namespace decisive::core
