// Synthetic evaluation subjects.
//
// The paper's evaluation systems are proprietary ("which we are not at
// liberty to disclose"), so this module generates stand-ins with the
// published element counts:
//   System A — a sensor power-supply system, 102 model elements;
//   System B — the main control unit (hardware + software) of an autonomous
//              underwater vehicle, 230 model elements.
// Both are mixed serial/parallel architectures so the FMEA produces a
// non-trivial split of safety-related and redundant components.
//
// For the scalability experiment (Table VI) a procedural ElementSource
// generates models of arbitrary size, and evaluate_full_load /
// evaluate_indexed run the same model-wide safety query against the two
// repository back-ends.
#pragma once

#include <cstdint>
#include <memory>

#include "decisive/core/reliability.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/model/repository.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::core {

/// A generated evaluation subject.
struct SyntheticSystem {
  std::unique_ptr<ssam::SsamModel> model;
  ssam::ObjectId system = model::kNullObject;  ///< top-level component
  size_t element_count = 0;                    ///< total SSAM elements
};

/// System A: sensor power supply, exactly 102 SSAM elements.
SyntheticSystem make_system_a();

/// System B: AUV main control unit (HW+SW), exactly 230 SSAM elements.
SyntheticSystem make_system_b();

/// Reliability data covering every component type used by Systems A and B.
ReliabilityModel synthetic_reliability();

/// Safety-mechanism catalogue for Systems A and B (rich enough to reach
/// ASIL-B on both).
SafetyMechanismModel synthetic_sm_catalogue();

/// Safety-mechanism catalogue for make_scaled_architecture subjects: several
/// coverage/cost options per (Subsystem|Sensor|Resistor) × (Open|Short), so
/// a scaled design exposes hundreds of open rows with 3-5 options each — the
/// deployment-search scaling workload of the `reproduce` tool's ablation.
SafetyMechanismModel scaled_sm_catalogue();

/// A hierarchical Table-VI-style scalability subject for the edit →
/// re-analyse workload: a system of `composites` serial composite units,
/// each wrapping a serial chain of `leaves` leaf components with
/// loss-of-function failure modes and FIT data. Every composite is an
/// independent analysis unit of the graph FMEA, so a single-component edit
/// touches O(1) of the `composites + 1` units.
/// (composites=40, leaves=16 lands near the paper's Set3 element count.)
///
/// `width` replicates every composite stage into `width` parallel units
/// ("Unit{c}_{k}") with dense bipartite wiring between consecutive stages:
/// width^composites input→output paths but only `composites` minimal cut
/// sets, each of order `width` — the FTA workload where path enumeration is
/// infeasible and ZBDD synthesis is not. width = 1 (the default) preserves
/// the original serial chain byte-for-byte.
SyntheticSystem make_scaled_architecture(size_t composites, size_t leaves,
                                         size_t width = 1);

// ---------------------------------------------------------------------------
// Scalability (Table VI)
// ---------------------------------------------------------------------------

/// Streams `count` synthetic Component elements (fit + safetyRelated attrs)
/// without materialising them.
class ScalabilitySource final : public model::ElementSource {
 public:
  explicit ScalabilitySource(std::uint64_t count);

  [[nodiscard]] std::uint64_t size_hint() const override { return count_; }
  [[nodiscard]] size_t bytes_per_element() const override { return 192; }
  bool next(const std::function<void(const model::MetaClass&,
                                     const std::function<void(model::ModelObject&)>&)>& emit)
      override;

 private:
  std::uint64_t count_;
  std::uint64_t emitted_ = 0;
};

/// Result of one scalability evaluation run.
struct ScalabilityRun {
  std::uint64_t elements = 0;
  bool loaded = false;       ///< false => memory overflow (the paper's "N/A")
  std::string failure;       ///< overflow diagnostic when !loaded
  std::uint64_t safety_related = 0;
  double total_fit = 0.0;
  double load_seconds = 0.0;
  double query_seconds = 0.0;
};

/// Full-load (EMF-style) evaluation: materialise everything, then run the
/// safety query. `memory_budget_bytes` caps the resident model.
ScalabilityRun evaluate_full_load(std::uint64_t count, size_t memory_budget_bytes);

/// Indexed (Hawk-style) evaluation: stream into a columnar index, then run
/// the same query against the index.
ScalabilityRun evaluate_indexed(std::uint64_t count);

}  // namespace decisive::core
