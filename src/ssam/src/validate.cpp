#include "decisive/ssam/validate.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "decisive/base/strings.hpp"

namespace decisive::ssam {

namespace {

void check_component(const SsamModel& m, const model::ModelObject& comp,
                     std::vector<ValidationFinding>& findings) {
  const std::string name = comp.get_string("name");
  if (comp.get_real("fit") < 0.0) {
    findings.push_back({"comp-fit-negative", comp.id(),
                        "component '" + name + "' has negative FIT"});
  }

  // Failure modes.
  double distribution_sum = 0.0;
  const std::set<ObjectId> own_modes(comp.refs("failureModes").begin(),
                                     comp.refs("failureModes").end());
  for (const ObjectId fm : comp.refs("failureModes")) {
    const double dist = m.obj(fm).get_real("distribution");
    if (dist < 0.0 || dist > 1.0) {
      findings.push_back({"fm-distribution-range", fm,
                          "failure mode '" + m.obj(fm).get_string("name") + "' of '" + name +
                              "' has distribution outside [0,1]"});
    }
    distribution_sum += dist;
  }
  if (distribution_sum > 1.0 + 1e-9) {
    findings.push_back({"fm-distribution-sum", comp.id(),
                        "failure-mode distributions of '" + name + "' sum to " +
                            format_number(distribution_sum, 4) + " (> 1)"});
  }

  // Safety mechanisms.
  for (const ObjectId sm : comp.refs("safetyMechanisms")) {
    const double coverage = m.obj(sm).get_real("coverage");
    if (coverage < 0.0 || coverage > 1.0) {
      findings.push_back({"sm-coverage-range", sm,
                          "safety mechanism '" + m.obj(sm).get_string("name") + "' on '" +
                              name + "' has coverage outside [0,1]"});
    }
    for (const ObjectId covered : m.obj(sm).refs("covers")) {
      if (!own_modes.contains(covered)) {
        findings.push_back({"sm-covers-foreign", sm,
                            "safety mechanism '" + m.obj(sm).get_string("name") + "' on '" +
                                name + "' covers a failure mode of another component"});
      }
    }
  }

  // IONodes.
  for (const ObjectId node : comp.refs("ioNodes")) {
    const std::string direction = m.obj(node).get_string("direction");
    if (direction != "in" && direction != "out" && direction != "inout") {
      findings.push_back({"io-direction", node,
                          "IONode '" + m.obj(node).get_string("name") + "' of '" + name +
                              "' has direction '" + direction + "'"});
    }
  }

  // Relationships: endpoints in scope (own boundary or direct subcomponents).
  std::set<ObjectId> in_scope(comp.refs("ioNodes").begin(), comp.refs("ioNodes").end());
  for (const ObjectId sub : comp.refs("subcomponents")) {
    for (const ObjectId node : m.obj(sub).refs("ioNodes")) in_scope.insert(node);
  }
  // The messages are ssam::build_graph's errors for the same faults.
  for (const ObjectId rel : comp.refs("relationships")) {
    const std::string relationship =
        "relationship '" + m.obj(rel).get_string("name") + "' of '" + name + "'";
    const ObjectId source = m.obj(rel).ref("source");
    const ObjectId target = m.obj(rel).ref("target");
    if (source == model::kNullObject || target == model::kNullObject) {
      findings.push_back({"rel-endpoint-missing", rel, relationship + " is missing an endpoint"});
      continue;
    }
    for (const ObjectId endpoint : {source, target}) {
      if (!in_scope.contains(endpoint)) {
        findings.push_back({"rel-endpoint-scope", rel,
                            relationship + " wires IONode '" +
                                m.obj(endpoint).get_string("name") +
                                "', which is neither an IONode of '" + name +
                                "' nor of one of its subcomponents"});
      }
    }
  }

  // Composite components that wire subcomponents should expose a boundary.
  if (!comp.refs("subcomponents").empty() && !comp.refs("relationships").empty() &&
      comp.refs("ioNodes").empty()) {
    findings.push_back({"composite-io", comp.id(),
                        "composite component '" + name +
                            "' wires subcomponents but exposes no boundary IONodes"});
  }

  // Sibling name collisions.
  std::map<std::string, int> names;
  for (const ObjectId sub : comp.refs("subcomponents")) {
    ++names[m.obj(sub).get_string("name")];
  }
  for (const auto& [sub_name, count] : names) {
    if (count > 1) {
      findings.push_back({"name-collision", comp.id(),
                          "component '" + name + "' has " + std::to_string(count) +
                              " subcomponents named '" + sub_name + "'"});
    }
  }
}

}  // namespace

std::vector<ValidationFinding> validate(const SsamModel& ssam) {
  std::vector<ValidationFinding> findings;
  const auto& component_cls = ssam.meta().get(cls::Component);
  ssam.repo().for_each([&](const model::ModelObject& obj) {
    if (obj.is_kind_of(component_cls)) check_component(ssam, obj, findings);
  });
  return findings;
}

std::string to_text(const SsamModel& ssam, const std::vector<ValidationFinding>& findings) {
  (void)ssam;
  if (findings.empty()) return "model is well-formed\n";
  std::string out;
  for (const auto& finding : findings) {
    out += "[" + finding.rule + "] " + finding.message + "\n";
  }
  return out;
}

}  // namespace decisive::ssam
