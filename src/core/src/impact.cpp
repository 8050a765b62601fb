#include "decisive/core/impact.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "decisive/base/error.hpp"

namespace decisive::core {

using ssam::ObjectId;
using ssam::SsamModel;

namespace {

void add_unique(std::vector<ObjectId>& list, ObjectId id) {
  if (std::find(list.begin(), list.end(), id) == list.end()) list.push_back(id);
}

/// The reverse traceability one report needs, built in one repository pass
/// into arrays indexed by object id: the repository assigns ids 1..size() in
/// creation order, so id order is repository order. The pass reads each
/// object's own reference slots and resolves no name. Nothing outlives the
/// request, so no edit or analysis write-back has to keep it in step.
class ImpactIndex {
 public:
  /// `my_nodes` (the changed component's IONodes) and `citation_targets`
  /// (it and its failure modes) are sorted.
  ImpactIndex(const SsamModel& ssam, const std::vector<ObjectId>& my_nodes,
              const std::vector<ObjectId>& citation_targets)
      : node_owner_(ssam.size() + 1, model::kNullObject), first_(ssam.size() + 2, 0) {
    const auto& component_cls = ssam.meta().get(ssam::cls::Component);
    const auto& relationship_cls = ssam.meta().get(ssam::cls::ComponentRelationship);
    const auto& requirement_cls = ssam.meta().get(ssam::cls::Requirement);
    const model::MetaReference& io_nodes = component_cls.reference("ioNodes");
    const model::MetaReference& source = relationship_cls.reference("source");
    const model::MetaReference& target = relationship_cls.reference("target");
    const model::MetaReference& cites = requirement_cls.reference("cites");
    const auto mine = [&](ObjectId node) {
      return std::binary_search(my_nodes.begin(), my_nodes.end(), node);
    };
    const auto first_of = [](const std::vector<ObjectId>& targets) {
      return targets.empty() ? model::kNullObject : targets.front();
    };

    std::vector<std::pair<ObjectId, ObjectId>> contained;  ///< (object, container)
    contained.reserve(ssam.size());
    ssam.repo().for_each([&](const model::ModelObject& obj) {
      for (const auto& [ref, targets] : obj.ref_slots()) {
        if (!ref->containment) continue;
        for (const ObjectId child : targets) {
          if (!known(child)) continue;
          contained.emplace_back(child, obj.id());
          ++first_[child + 1];
        }
      }
      if (obj.is_kind_of(component_cls)) {
        for (const ObjectId node : obj.refs(io_nodes)) {
          if (known(node)) node_owner_[node] = obj.id();
        }
      } else if (obj.is_kind_of(relationship_cls)) {
        const ObjectId from = first_of(obj.refs(source));
        const ObjectId to = first_of(obj.refs(target));
        if (mine(from) || mine(to)) wires_.emplace_back(from, to);
      } else if (obj.is_kind_of(requirement_cls)) {
        const auto& cited = obj.refs(cites);
        if (std::any_of(cited.begin(), cited.end(), [&](ObjectId id) {
              return std::binary_search(citation_targets.begin(), citation_targets.end(), id);
            })) {
          citing_.push_back(obj.id());
        }
      }
    });

    // Containers as CSR: a counting sort of the (object, container) pairs,
    // stable, so each object's containers stay in repository order.
    for (size_t i = 1; i < first_.size(); ++i) first_[i] += first_[i - 1];
    containers_.resize(contained.size());
    std::vector<size_t> next(first_.begin(), first_.end() - 1);
    for (const auto& [child, container] : contained) containers_[next[child]++] = container;
  }

  /// Objects whose containment references list `id`, in repository order.
  [[nodiscard]] std::span<const ObjectId> containers_of(ObjectId id) const {
    if (!known(id)) return {};
    return std::span<const ObjectId>(containers_)
        .subspan(first_[id], first_[id + 1] - first_[id]);
  }

  /// The Component listing `node` among its IONodes (the last one in
  /// repository order), or kNullObject.
  [[nodiscard]] ObjectId owner_of(ObjectId node) const {
    return known(node) ? node_owner_[node] : model::kNullObject;
  }

  /// (source, target) of every ComponentRelationship with an endpoint among
  /// the component's IONodes, in repository order.
  [[nodiscard]] const std::vector<std::pair<ObjectId, ObjectId>>& wires() const {
    return wires_;
  }

  /// Every Requirement citing one of the citation targets, in repository order.
  [[nodiscard]] const std::vector<ObjectId>& citing() const { return citing_; }

 private:
  [[nodiscard]] bool known(ObjectId id) const {
    return id != model::kNullObject && id < node_owner_.size();
  }

  std::vector<ObjectId> node_owner_;
  std::vector<size_t> first_;  ///< CSR offsets: containers of id i at [first_[i], first_[i+1])
  std::vector<ObjectId> containers_;
  std::vector<std::pair<ObjectId, ObjectId>> wires_;
  std::vector<ObjectId> citing_;
};

std::vector<ObjectId> sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

ImpactReport impact_of_change(const SsamModel& ssam, ObjectId component) {
  const auto& comp = ssam.obj(component);
  if (!comp.is_kind_of(ssam.meta().get(ssam::cls::Component))) {
    throw ModelError("impact_of_change expects a Component");
  }
  const auto& fms = comp.refs("failureModes");
  const std::vector<ObjectId> my_nodes = sorted(comp.refs("ioNodes"));
  std::vector<ObjectId> citation_targets(fms.begin(), fms.end());
  citation_targets.push_back(component);
  citation_targets = sorted(std::move(citation_targets));
  const ImpactIndex index(ssam, my_nodes, citation_targets);

  ImpactReport report;
  report.changed = component;

  // Containment ancestors (transitively).
  std::vector<ObjectId> frontier{component};
  while (!frontier.empty()) {
    const ObjectId current = frontier.back();
    frontier.pop_back();
    for (const ObjectId container : index.containers_of(current)) {
      if (container == component ||
          std::find(report.ancestors.begin(), report.ancestors.end(), container) !=
              report.ancestors.end()) {
        continue;
      }
      report.ancestors.push_back(container);
      frontier.push_back(container);
    }
  }

  // Signal neighbours: within any parent component's relationships, the
  // other endpoint's owner when one endpoint is ours.
  const auto mine = [&](ObjectId node) {
    return std::binary_search(my_nodes.begin(), my_nodes.end(), node);
  };
  for (const auto& [source, target] : index.wires()) {
    if (mine(source) && target != model::kNullObject) {
      const ObjectId other = index.owner_of(target);
      if (other != model::kNullObject && other != component) {
        add_unique(report.connected_components, other);
      }
    }
    if (mine(target) && source != model::kNullObject) {
      const ObjectId other = index.owner_of(source);
      if (other != model::kNullObject && other != component) {
        add_unique(report.connected_components, other);
      }
    }
  }

  // Citations: any Requirement citing the component (or one of its failure
  // modes) is allocation traceability that must be revisited.
  report.requirements = index.citing();

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

std::string ImpactReport::to_text(const SsamModel& ssam) const {
  auto names = [&](const std::vector<ObjectId>& ids) {
    std::string out;
    for (const ObjectId id : ids) {
      if (!out.empty()) out += ", ";
      out += ssam.obj(id).get_string("name");
    }
    return out.empty() ? std::string("-") : out;
  };
  std::string out = "Impact of changing '" + ssam.obj(changed).get_string("name") + "':\n";
  out += "  containing designs:   " + names(ancestors) + "\n";
  out += "  connected components: " + names(connected_components) + "\n";
  out += "  requirements:         " + names(requirements) + "\n";
  out += "  hazards:              " + names(hazards) + "\n";
  out += "  safety mechanisms:    " + names(safety_mechanisms) + "\n";
  out += reanalysis_required
             ? "  => safety-related failure modes affected: re-run Step 4a before merging\n"
             : "  => no safety-related failure mode affected\n";
  return out;
}

}  // namespace decisive::core
