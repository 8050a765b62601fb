#include "decisive/fta/lfm.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "decisive/base/strings.hpp"

namespace decisive::fta {

namespace {

using ssam::ObjectId;

/// Nature of `row`'s failure mode, resolved from the model (FmedaRow does
/// not carry the nature): the component's failure mode matching the row's
/// mode name. Returns kNullObject when the row has no model identity or the
/// mode is gone (e.g. renamed since the analysis).
ObjectId failure_mode_of(const ssam::SsamModel& ssam, const core::FmedaRow& row) {
  if (row.component_id == model::kNullObject) return model::kNullObject;
  for (const ObjectId fm : ssam.obj(row.component_id).refs("failureModes")) {
    if (ssam.obj(fm).get_string("name") == row.failure_mode) return fm;
  }
  return model::kNullObject;
}

}  // namespace

std::string_view to_string(FaultClass cls) noexcept {
  switch (cls) {
    case FaultClass::NotInvolved: return "not involved";
    case FaultClass::SinglePoint: return "single point";
    case FaultClass::MultiPointDetected: return "multi-point detected";
    case FaultClass::MultiPointPerceived: return "multi-point perceived";
    case FaultClass::MultiPointLatent: return "multi-point latent";
  }
  return "?";
}

bool LfmResult::has_multi_point() const {
  return std::any_of(rows.begin(), rows.end(),
                     [](const LfmRow& row) { return row.min_cut_order >= 2; });
}

double LfmResult::lfm() const {
  if (!has_multi_point() || denominator_fit <= 0.0) return 1.0;
  return 1.0 - latent_fit / denominator_fit;
}

std::string LfmResult::asil_label() const {
  if (!has_multi_point()) return "no multi-point faults";
  return core::achieved_asil_lfm(lfm());
}

std::string LfmResult::to_text() const {
  std::string out;
  out += "multi-point FIT: " + format_number(multi_point_fit, 3);
  out += " (detected " + format_number(detected_fit, 3);
  out += ", perceived " + format_number(perceived_fit, 3);
  out += ", latent " + format_number(latent_fit, 3) + ")\n";
  out += "LFM = " + format_number(lfm() * 100.0, 2) + "% (" + asil_label() + ")\n";
  return out;
}

LfmResult classify_latent(const ssam::SsamModel& ssam, const core::FaultTree& tree,
                          const core::FmedaResult& fmea) {
  // Minimal cut order per cut-participating component: (component, order)
  // sorted by component, the smallest order first within a component.
  std::vector<std::pair<ObjectId, size_t>> min_order;
  for (const auto& cut : tree.cut_sets) {
    for (const ObjectId member : cut) min_order.emplace_back(member, cut.size());
  }
  std::sort(min_order.begin(), min_order.end());
  min_order.erase(std::unique(min_order.begin(), min_order.end(),
                              [](const auto& a, const auto& b) { return a.first == b.first; }),
                  min_order.end());

  LfmResult out;
  double relevant_fit = 0.0;
  for (size_t i = 0; i < fmea.rows.size(); ++i) {
    const core::FmedaRow& fmea_row = fmea.rows[i];
    LfmRow row;
    row.row_index = i;

    // Membership first: most rows' components are in no cut set, and
    // resolving a row's failure mode is a name scan over its component.
    const auto order_it = std::lower_bound(min_order.begin(), min_order.end(),
                                           std::pair{fmea_row.component_id, size_t{0}});
    if (order_it == min_order.end() || order_it->first != fmea_row.component_id) {
      out.rows.push_back(row);  // NotInvolved
      continue;
    }
    const ObjectId fm = failure_mode_of(ssam, fmea_row);
    if (fm == model::kNullObject ||
        !core::is_loss_failure_nature(ssam.obj(fm).get_string("nature"))) {
      out.rows.push_back(row);  // NotInvolved
      continue;
    }
    row.min_cut_order = order_it->second;
    relevant_fit += fmea_row.mode_fit();

    const double residual = fmea_row.mode_fit() * (1.0 - fmea_row.sm_coverage);
    if (row.min_cut_order == 1) {
      // SPFM territory: its residual leaves the LFM denominator.
      row.cls = FaultClass::SinglePoint;
      out.single_point_residual_fit += residual;
    } else {
      row.detected_fit = fmea_row.mode_fit() * fmea_row.sm_coverage;
      const bool perceived = ssam.obj(fm).get_bool("perceived");
      (perceived ? row.perceived_fit : row.latent_fit) = residual;
      row.cls = row.latent_fit > 0.0    ? FaultClass::MultiPointLatent
                : row.perceived_fit > 0.0 ? FaultClass::MultiPointPerceived
                                          : FaultClass::MultiPointDetected;
      out.multi_point_fit += fmea_row.mode_fit();
      out.detected_fit += row.detected_fit;
      out.perceived_fit += row.perceived_fit;
      out.latent_fit += row.latent_fit;
    }
    out.rows.push_back(row);
  }
  out.denominator_fit = relevant_fit - out.single_point_residual_fit;
  return out;
}

void apply_lfm(core::FmedaResult& fmea, const LfmResult& lfm) {
  fmea.latent_fault_metric = lfm.lfm();
}

std::vector<double> lfm_row_weights(const LfmResult& lfm) {
  std::vector<double> weights(lfm.rows.size(), 0.0);
  for (const LfmRow& row : lfm.rows) {
    if (row.min_cut_order >= 2) weights[row.row_index] = 1.0;
  }
  return weights;
}

}  // namespace decisive::fta
