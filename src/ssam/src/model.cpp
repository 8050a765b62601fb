#include "decisive/ssam/model.hpp"

#include "decisive/base/error.hpp"
#include "decisive/drivers/datasource.hpp"

namespace decisive::ssam {

using model::kNullObject;
using model::ModelObject;

SsamModel::SsamModel(size_t memory_budget_bytes) : repo_(memory_budget_bytes) {}

ObjectId SsamModel::create_named(std::string_view class_name, std::string_view name) {
  ModelObject& o = repo_.create(meta().get(class_name));
  o.set_string("uid", "ssam-" + std::to_string(next_uid_++));
  o.set_string("name", std::string(name));
  return o.id();
}

ObjectId SsamModel::mbsa_root() {
  if (mbsa_root_ == kNullObject) {
    mbsa_root_ = create_named(cls::MBSAPackage, "mbsa");
  }
  return mbsa_root_;
}

ObjectId SsamModel::create_requirement_package(std::string_view name) {
  const ObjectId id = create_named(cls::RequirementPackage, name);
  obj(mbsa_root()).add_ref("requirementPackages", id);
  return id;
}

ObjectId SsamModel::create_hazard_package(std::string_view name) {
  const ObjectId id = create_named(cls::HazardPackage, name);
  obj(mbsa_root()).add_ref("hazardPackages", id);
  return id;
}

ObjectId SsamModel::create_component_package(std::string_view name) {
  const ObjectId id = create_named(cls::ComponentPackage, name);
  obj(mbsa_root()).add_ref("componentPackages", id);
  return id;
}

ObjectId SsamModel::create_requirement(ObjectId package, std::string_view name,
                                       std::string_view text,
                                       std::string_view integrity_level) {
  const ObjectId id = create_named(cls::Requirement, name);
  obj(id).set_string("text", std::string(text));
  obj(id).set_string("integrityLevel", std::string(integrity_level));
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::create_safety_requirement(ObjectId package, std::string_view name,
                                              std::string_view text,
                                              std::string_view integrity_level,
                                              std::string_view functional_part) {
  const ObjectId id = create_named(cls::SafetyRequirement, name);
  obj(id).set_string("text", std::string(text));
  obj(id).set_string("integrityLevel", std::string(integrity_level));
  obj(id).set_string("functionalPart", std::string(functional_part));
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::relate_requirements(ObjectId package, std::string_view kind,
                                        ObjectId source, ObjectId target) {
  const ObjectId id = create_named(cls::RequirementRelationship,
                                   std::string(kind) + "-relationship");
  obj(id).set_string("kind", std::string(kind));
  obj(id).set_ref("source", source);
  obj(id).set_ref("target", target);
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::create_hazard(ObjectId package, std::string_view name,
                                  std::string_view severity, double probability,
                                  std::string_view integrity_level) {
  const ObjectId id = create_named(cls::HazardousSituation, name);
  obj(id).set_string("severity", std::string(severity));
  obj(id).set_real("probability", probability);
  obj(id).set_string("integrityLevel", std::string(integrity_level));
  obj(package).add_ref("elements", id);
  return id;
}

ObjectId SsamModel::add_cause(ObjectId hazard, std::string_view name,
                              std::string_view mechanism) {
  const ObjectId id = create_named(cls::Cause, name);
  obj(id).set_string("mechanism", std::string(mechanism));
  obj(hazard).add_ref("causes", id);
  return id;
}

ObjectId SsamModel::add_control_measure(ObjectId hazard, std::string_view name,
                                        double effectiveness_of_verification) {
  const ObjectId id = create_named(cls::ControlMeasure, name);
  obj(id).set_real("effectivenessOfVerification", effectiveness_of_verification);
  obj(hazard).add_ref("controlMeasures", id);
  return id;
}

ObjectId SsamModel::create_component(ObjectId parent, std::string_view name) {
  const ObjectId id = create_named(cls::Component, name);
  ModelObject& p = obj(parent);
  if (p.is_kind_of(meta().get(cls::Component))) {
    p.add_ref("subcomponents", id);
  } else if (p.is_kind_of(meta().get(cls::ComponentPackage))) {
    p.add_ref("elements", id);
  } else {
    throw ModelError("components live in a ComponentPackage or another Component");
  }
  return id;
}

ObjectId SsamModel::add_io_node(ObjectId component, std::string_view name,
                                std::string_view direction) {
  if (direction != "in" && direction != "out" && direction != "inout") {
    throw ModelError("IONode direction must be 'in', 'out' or 'inout'");
  }
  const ObjectId id = create_named(cls::IONode, name);
  obj(id).set_string("direction", std::string(direction));
  obj(component).add_ref("ioNodes", id);
  return id;
}

ObjectId SsamModel::connect(ObjectId component, ObjectId source_node, ObjectId target_node) {
  const auto& io_cls = meta().get(cls::IONode);
  if (!obj(source_node).is_kind_of(io_cls) || !obj(target_node).is_kind_of(io_cls)) {
    throw ModelError("connect() endpoints must be IONodes");
  }
  const ObjectId id = create_named(cls::ComponentRelationship, "wire");
  obj(id).set_ref("source", source_node);
  obj(id).set_ref("target", target_node);
  obj(component).add_ref("relationships", id);
  return id;
}

ObjectId SsamModel::add_failure_mode(ObjectId component, std::string_view name,
                                     double distribution, std::string_view nature) {
  if (distribution < 0.0 || distribution > 1.0) {
    throw ModelError("failure-mode distribution must be in [0,1]");
  }
  const ObjectId id = create_named(cls::FailureMode, name);
  obj(id).set_real("distribution", distribution);
  obj(id).set_string("nature", std::string(nature));
  obj(component).add_ref("failureModes", id);
  return id;
}

ObjectId SsamModel::add_safety_mechanism(ObjectId component, std::string_view name,
                                         double coverage, double cost_hours,
                                         ObjectId covers_failure_mode) {
  if (coverage < 0.0 || coverage > 1.0) {
    throw ModelError("safety-mechanism coverage must be in [0,1]");
  }
  const ObjectId id = create_named(cls::SafetyMechanism, name);
  obj(id).set_real("coverage", coverage);
  obj(id).set_real("costHours", cost_hours);
  if (covers_failure_mode != kNullObject) obj(id).add_ref("covers", covers_failure_mode);
  obj(component).add_ref("safetyMechanisms", id);
  return id;
}

ObjectId SsamModel::add_function(ObjectId component, std::string_view name,
                                 std::string_view tolerance_type) {
  if (tolerance_type != "1oo1" && tolerance_type != "1oo2" && tolerance_type != "1oo3" &&
      tolerance_type != "2oo3") {
    throw ModelError("tolerance type must be one of 1oo1/1oo2/1oo3/2oo3");
  }
  const ObjectId id = create_named(cls::Function, name);
  obj(id).set_string("toleranceType", std::string(tolerance_type));
  obj(component).add_ref("functions", id);
  return id;
}

ObjectId SsamModel::add_external_reference(ObjectId element, std::string_view location,
                                           std::string_view model_type,
                                           std::string_view extraction_rule) {
  const ObjectId rule_id = create_named(cls::ImplementationConstraint, "extraction-rule");
  obj(rule_id).set_string("language", "decisive-query");
  obj(rule_id).set_string("body", std::string(extraction_rule));

  const ObjectId id = create_named(cls::ExternalReference, "external-reference");
  obj(id).set_string("location", std::string(location));
  obj(id).set_string("modelType", std::string(model_type));
  obj(id).set_ref("extractionRule", rule_id);
  obj(element).add_ref("externalReferences", id);
  return id;
}

void SsamModel::cite(ObjectId from, ObjectId to) { obj(from).add_ref("cites", to); }

std::vector<ObjectId> SsamModel::components_of(ObjectId parent) const {
  const ModelObject& p = obj(parent);
  std::vector<ObjectId> out;
  const auto& component_cls = meta().get(cls::Component);
  if (p.is_kind_of(component_cls)) {
    return p.refs("subcomponents");
  }
  if (p.is_kind_of(meta().get(cls::ComponentPackage))) {
    for (const ObjectId id : p.refs("elements")) {
      if (obj(id).is_kind_of(component_cls)) out.push_back(id);
    }
  }
  return out;
}

std::vector<ObjectId> SsamModel::all_components_under(ObjectId root) const {
  std::vector<ObjectId> out;
  std::vector<ObjectId> stack = components_of(root);
  while (!stack.empty()) {
    const ObjectId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    for (const ObjectId sub : obj(id).refs("subcomponents")) stack.push_back(sub);
  }
  return out;
}

ObjectId SsamModel::find_by_name(std::string_view class_name, std::string_view name) const {
  const auto& wanted = meta().get(class_name);
  // Resolved once; every instance of `wanted` shares it. Without it, each
  // candidate resolves its own (and throws when its class has none).
  const model::MetaAttribute* name_attr = wanted.find_attribute("name");
  for (ObjectId id = 1; id <= repo_.size(); ++id) {
    const ModelObject& o = repo_.get(id);
    if (!o.is_kind_of(wanted)) continue;
    const auto* text = std::get_if<std::string>(
        &o.get(name_attr != nullptr ? *name_attr : o.meta().attribute("name")));
    if ((text != nullptr ? std::string_view(*text) : std::string_view()) == name) return id;
  }
  return kNullObject;
}

query::Value run_extraction(const SsamModel& ssam, ObjectId external_reference) {
  const ModelObject& ext = ssam.obj(external_reference);
  if (!ext.is_kind_of(ssam.meta().get(cls::ExternalReference))) {
    throw ModelError("run_extraction expects an ExternalReference");
  }
  const ObjectId rule_id = ext.ref("extractionRule");
  if (rule_id == kNullObject) {
    throw ModelError("external reference has no extraction rule");
  }
  const std::string body = ssam.obj(rule_id).get_string("body");
  if (body.empty()) throw ModelError("extraction rule body is empty");

  const std::string location = ext.get_string("location");
  const std::string type = ext.get_string("modelType");
  const auto source = drivers::DriverRegistry::global().open(location, type);

  query::Env env;
  source->bind(env);
  return query::eval(body, env);
}

}  // namespace decisive::ssam
