#include <algorithm>
#include <map>
#include <set>

#include "decisive/base/error.hpp"
#include "decisive/oracles.hpp"

namespace decisive::oracle {

using ssam::ObjectId;
using ssam::SsamModel;

namespace {

void add_unique(std::vector<ObjectId>& list, ObjectId id) {
  if (std::find(list.begin(), list.end(), id) == list.end()) list.push_back(id);
}

/// Reverse indices over the model in `std::map`s, keyed by object id and
/// filled by name-resolved reference reads.
struct ImpactIndex {
  std::map<ObjectId, std::vector<ObjectId>> containers;  ///< object -> containing objects
  std::map<ObjectId, ObjectId> node_owner;               ///< IONode -> owning Component
  /// (source, target) of every ComponentRelationship, repository order.
  std::vector<std::pair<ObjectId, ObjectId>> relationships;
  std::vector<ObjectId> requirements;  ///< every Requirement, repository order

  explicit ImpactIndex(const SsamModel& ssam) {
    const auto& component_cls = ssam.meta().get(ssam::cls::Component);
    const auto& relationship_cls = ssam.meta().get(ssam::cls::ComponentRelationship);
    const auto& requirement_cls = ssam.meta().get(ssam::cls::Requirement);
    ssam.repo().for_each([&](const model::ModelObject& obj) {
      obj.meta().for_each_reference([&](const model::MetaReference& ref) {
        if (!ref.containment) return;
        for (const ObjectId target : obj.refs(ref.name)) {
          containers[target].push_back(obj.id());
        }
      });
      if (obj.is_kind_of(component_cls)) {
        for (const ObjectId node : obj.refs("ioNodes")) node_owner[node] = obj.id();
      } else if (obj.is_kind_of(relationship_cls)) {
        relationships.emplace_back(obj.ref("source"), obj.ref("target"));
      } else if (obj.is_kind_of(requirement_cls)) {
        requirements.push_back(obj.id());
      }
    });
  }
};

}  // namespace

core::ImpactReport impact_of_change(const SsamModel& ssam, ObjectId component) {
  const auto& comp = ssam.obj(component);
  if (!comp.is_kind_of(ssam.meta().get(ssam::cls::Component))) {
    throw ModelError("impact_of_change expects a Component");
  }
  const ImpactIndex index(ssam);

  core::ImpactReport report;
  report.changed = component;

  // Containment ancestors (transitively).
  std::vector<ObjectId> frontier{component};
  std::set<ObjectId> seen{component};
  while (!frontier.empty()) {
    const ObjectId current = frontier.back();
    frontier.pop_back();
    const auto containers = index.containers.find(current);
    if (containers == index.containers.end()) continue;
    for (const ObjectId container : containers->second) {
      if (seen.insert(container).second) {
        report.ancestors.push_back(container);
        frontier.push_back(container);
      }
    }
  }

  // Signal neighbours: within any parent component's relationships, the
  // other endpoint's owner when one endpoint is ours.
  const std::set<ObjectId> my_nodes(comp.refs("ioNodes").begin(), comp.refs("ioNodes").end());
  auto owner_of_node = [&](ObjectId node) -> ObjectId {
    const auto owner = index.node_owner.find(node);
    return owner == index.node_owner.end() ? model::kNullObject : owner->second;
  };
  for (const auto& [source, target] : index.relationships) {
    if (my_nodes.contains(source) && target != model::kNullObject) {
      const ObjectId other = owner_of_node(target);
      if (other != model::kNullObject && other != component) {
        add_unique(report.connected_components, other);
      }
    }
    if (my_nodes.contains(target) && source != model::kNullObject) {
      const ObjectId other = owner_of_node(source);
      if (other != model::kNullObject && other != component) {
        add_unique(report.connected_components, other);
      }
    }
  }

  // Citations of the component or one of its failure modes.
  const auto& fms = comp.refs("failureModes");
  std::set<ObjectId> citation_targets{component};
  citation_targets.insert(fms.begin(), fms.end());
  for (const ObjectId requirement : index.requirements) {
    for (const ObjectId cited : ssam.obj(requirement).refs("cites")) {
      if (citation_targets.contains(cited)) {
        add_unique(report.requirements, requirement);
        break;
      }
    }
  }

  // Hazards and mechanisms hanging off the component's failure modes.
  for (const ObjectId fm : fms) {
    const auto& fm_obj = ssam.obj(fm);
    for (const ObjectId hazard : fm_obj.refs("hazards")) {
      add_unique(report.hazards, hazard);
    }
    if (fm_obj.get_bool("safetyRelated")) report.reanalysis_required = true;
  }
  for (const ObjectId sm : comp.refs("safetyMechanisms")) {
    add_unique(report.safety_mechanisms, sm);
  }
  return report;
}

}  // namespace decisive::oracle
