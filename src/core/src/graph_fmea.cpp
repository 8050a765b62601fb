#include "decisive/core/graph_fmea.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <optional>
#include <thread>
#include <utility>

#include "decisive/base/strings.hpp"
#include "decisive/obs/progress.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/ssam/graph.hpp"

namespace decisive::core {

namespace {

using ssam::ObjectId;
using ssam::SsamModel;

/// Graph-FMEA instrumentation, cached once per process.
struct GraphFmeaMetrics {
  obs::Counter& runs;
  obs::Counter& units;
  obs::Histogram& collect_seconds;
  obs::Histogram& analyze_seconds;
  obs::Histogram& emit_seconds;
  obs::Histogram& unit_seconds;

  static GraphFmeaMetrics& get() {
    auto& registry = obs::Registry::global();
    static GraphFmeaMetrics metrics{
        registry.counter("decisive_graph_fmea_runs_total"),
        registry.counter("decisive_graph_fmea_units_total"),
        registry.histogram("decisive_graph_fmea_collect_seconds"),
        registry.histogram("decisive_graph_fmea_analyze_seconds"),
        registry.histogram("decisive_graph_fmea_emit_seconds"),
        registry.histogram("decisive_graph_fmea_unit_seconds")};
    return metrics;
  }
};

bool is_loss_nature(const GraphFmeaOptions& options, const std::string& nature) {
  return std::any_of(options.loss_natures.begin(), options.loss_natures.end(),
                     [&](const std::string& loss) { return iequals(loss, nature); });
}

/// The highest-coverage SafetyMechanism modelled on `component` that covers
/// `failure_mode` (an SM with no `covers` targets covers every mode of its
/// component).
struct ModelledSm {
  std::string name;
  double coverage = 0.0;
  double cost_hours = 0.0;
};

std::optional<ModelledSm> best_modelled_sm(const SsamModel& ssam, ObjectId component,
                                           ObjectId failure_mode) {
  std::optional<ModelledSm> best;
  for (const ObjectId sm : ssam.obj(component).refs("safetyMechanisms")) {
    const auto& sm_obj = ssam.obj(sm);
    const auto& covers = sm_obj.refs("covers");
    const bool applies =
        covers.empty() || std::find(covers.begin(), covers.end(), failure_mode) != covers.end();
    if (!applies) continue;
    const double coverage = sm_obj.get_real("coverage");
    if (!best.has_value() || coverage > best->coverage) {
      best = ModelledSm{sm_obj.get_string("name"), coverage, sm_obj.get_real("costHours")};
    }
  }
  return best;
}

/// Sets (or refreshes) the auto-attached FailureEffect of a failure mode.
/// Idempotent: re-running the analysis updates the effect created by a
/// previous run instead of accumulating duplicates on the model.
void attach_effect(SsamModel& ssam, ObjectId failure_mode, EffectClass effect) {
  for (const ObjectId existing : ssam.obj(failure_mode).refs("effects")) {
    auto& fe = ssam.obj(existing);
    if (fe.get_string("name") == "effect") {
      fe.set_string("classification", std::string(to_string(effect)));
      return;
    }
  }
  auto& fe = ssam.repo().create(ssam.meta().get(ssam::cls::FailureEffect));
  fe.set_string("name", "effect");
  fe.set_string("classification", std::string(to_string(effect)));
  ssam.obj(failure_mode).add_ref("effects", fe.id());
}

/// Per-unit result of the (parallelisable) analysis phase.
struct UnitAnalysis {
  std::optional<ssam::SinglePointAnalysis> analysis;
  std::exception_ptr error;
};

/// Phase B: build each listed unit's graph and run the single-point
/// analysis — independent const reads of the model, safe to run on a pool.
/// Errors are captured per unit; the caller rethrows the first one in walk
/// order so behaviour is deterministic for any job count.
std::vector<UnitAnalysis> analyze_units(const SsamModel& ssam,
                                        const std::vector<ObjectId>& components,
                                        const GraphFmeaOptions& options) {
  std::vector<UnitAnalysis> analyses(components.size());
  // The pool: the configured job count, capped at the unit count, so a huge
  // --jobs starts (and sizes per-worker heartbeat rows for) only as many
  // threads as there are units.
  unsigned jobs = options.jobs > 0 ? static_cast<unsigned>(options.jobs)
                                   : std::max(1u, std::thread::hardware_concurrency());
  if (components.size() < jobs) {
    jobs = static_cast<unsigned>(std::max<size_t>(components.size(), 1));
  }

  obs::ProgressReporterOptions reporter_options;
  reporter_options.path = options.heartbeat_path;
  reporter_options.phase = "graph-fmea";
  reporter_options.total = components.size();
  reporter_options.workers = static_cast<int>(jobs);
  reporter_options.interval_seconds = options.heartbeat_interval_seconds;
  obs::ProgressReporter reporter(reporter_options);

  const auto analyze_one = [&](size_t i, int worker_id) {
    obs::Span span("graph_fmea.unit", &GraphFmeaMetrics::get().unit_seconds);
    try {
      const ssam::ComponentGraph graph = ssam::build_graph(ssam, components[i]);
      analyses[i].analysis.emplace(graph);
    } catch (...) {
      analyses[i].error = std::current_exception();
    }
    reporter.task_done(worker_id, analyses[i].error ? "Failed" : "Analyzed");
  };

  if (jobs <= 1) {
    for (size_t i = 0; i < components.size(); ++i) analyze_one(i, 0);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&](int worker_id) {
      for (size_t i = next.fetch_add(1); i < components.size(); i = next.fetch_add(1)) {
        analyze_one(i, worker_id);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker, static_cast<int>(t));
    for (auto& thread : pool) thread.join();
  }
  reporter.finish();

  for (const auto& ua : analyses) {
    if (ua.error) std::rethrow_exception(ua.error);
  }
  return analyses;
}

/// Emits one subcomponent of the unit `parent` (qualified path
/// `parent_path`), Algorithm 1 lines 5–12: appends its rows and warnings and
/// writes each verdict back into the model (component safety analysis model,
/// Step 4a output).
void emit_sub(SsamModel& ssam, ObjectId parent, const std::string& parent_path,
              const ssam::SinglePointAnalysis& analysis, ObjectId sub,
              const GraphFmeaOptions& options, std::vector<FmedaRow>& rows,
              std::vector<std::string>& warnings) {
  const std::string sub_name = ssam.obj(sub).get_string("name");
  const bool single_point = analysis.is_single_point(sub);

  const std::vector<ObjectId> failure_modes = ssam.obj(sub).refs("failureModes");
  for (const ObjectId fm : failure_modes) {
    FmedaRow row;
    row.component = sub_name;
    row.component_type = ssam.obj(sub).get_string("blockType", sub_name);
    row.component_id = sub;
    row.component_path = parent_path + "/" + sub_name;
    row.fit = ssam.obj(sub).get_real("fit");
    row.failure_mode = ssam.obj(fm).get_string("name");
    row.distribution = ssam.obj(fm).get_real("distribution");

    const std::string nature = ssam.obj(fm).get_string("nature");
    if (is_loss_nature(options, nature)) {
      // Algorithm 1 lines 5–8.
      row.safety_related = single_point;
      row.effect = single_point ? EffectClass::DVF : EffectClass::None;
    } else {
      const std::vector<ObjectId> affected = ssam.obj(fm).refs("affectedComponents");
      if (!affected.empty()) {
        // Figure 9: explicit affected-component traceability lets the FMEA
        // infer single-point faults for non-loss modes.
        bool any_critical = false;
        for (const ObjectId target : affected) {
          if (target == parent || analysis.is_single_point(target)) {
            any_critical = true;
            break;
          }
        }
        row.safety_related = any_critical;
        row.effect = any_critical ? EffectClass::IVF : EffectClass::None;
      } else {
        // Algorithm 1 line 11.
        warnings.push_back("failure mode '" + row.failure_mode + "' of '" + sub_name +
                           "' has nature '" + nature +
                           "' and no affected-component traceability; manual review "
                           "required");
      }
    }

    if (row.safety_related && options.apply_modelled_mechanisms) {
      if (const auto sm = best_modelled_sm(ssam, sub, fm)) {
        row.safety_mechanism = sm->name;
        row.sm_coverage = sm->coverage;
        row.sm_cost_hours = sm->cost_hours;
      }
    }

    ssam.obj(fm).set_bool("safetyRelated", row.safety_related);
    attach_effect(ssam, fm, row.effect);
    rows.push_back(std::move(row));
  }

  if (options.recursive && !ssam.obj(sub).refs("subcomponents").empty() &&
      ssam.obj(sub).refs("ioNodes").empty()) {
    warnings.push_back("composite subcomponent '" + sub_name +
                       "' has no IONodes; cannot recurse");
  }
}

/// Replaces the `count` elements of `into` that start at `at` with the
/// elements of `fresh` (moved out, `fresh` left empty). Elements after the
/// span move only when the two sizes differ; none is copied.
template <class T>
void splice(std::vector<T>& into, size_t at, size_t count, std::vector<T>& fresh) {
  const size_t kept = std::min(count, fresh.size());
  const auto span = into.begin() + static_cast<std::ptrdiff_t>(at);
  const auto fresh_kept = fresh.begin() + static_cast<std::ptrdiff_t>(kept);
  std::move(fresh.begin(), fresh_kept, span);
  const auto span_kept = span + static_cast<std::ptrdiff_t>(kept);
  if (fresh.size() > count) {
    into.insert(span_kept, std::make_move_iterator(fresh_kept),
                std::make_move_iterator(fresh.end()));
  } else {
    into.erase(span_kept, span + static_cast<std::ptrdiff_t>(count));
  }
  fresh.clear();
}

}  // namespace

GraphFmea::GraphFmea(SsamModel& ssam, ObjectId component, GraphFmeaOptions options)
    : ssam_(&ssam), options_(std::move(options)) {
  result_.system = ssam.obj(component).get_string("name");
  obs::Span collect_span("graph_fmea.collect", &GraphFmeaMetrics::get().collect_seconds);
  if (ssam.obj(component).refs("subcomponents").empty()) return;

  // Phase A: the walk of Algorithm 1 with an explicit stack (nesting depth
  // is bounded by heap, not stack). Units land in pre-order; each unit's
  // subcomponents land as segments in the order the walk emits them, a
  // composite subcomponent's own unit directly after its segment.
  units_.push_back({component, result_.system, std::nullopt, true});
  struct Frame {
    size_t unit;
    size_t next = 0;
  };
  std::vector<Frame> stack{{0, 0}};
  while (!stack.empty()) {
    const size_t unit = stack.back().unit;
    const auto& subs = ssam.obj(units_[unit].component).refs("subcomponents");
    if (stack.back().next >= subs.size()) {
      stack.pop_back();
      continue;
    }
    const ObjectId sub = subs[stack.back().next++];
    segments_.push_back({unit, sub, 0, 0});
    // Algorithm 1 line 14: repeat for composite subcomponents.
    const auto& sub_obj = ssam.obj(sub);
    if (options_.recursive && !sub_obj.refs("subcomponents").empty() &&
        !sub_obj.refs("ioNodes").empty()) {
      units_.push_back(
          {sub, units_[unit].path + "/" + sub_obj.get_string("name"), std::nullopt, true});
      stack.push_back({units_.size() - 1, 0});
    }
  }
}

void GraphFmea::mark(ObjectId component) {
  for (const Segment& segment : segments_) {
    if (segment.sub == component) units_[segment.unit].dirty = true;
  }
  for (Unit& unit : units_) {
    if (unit.component == component) unit.dirty = true;
  }
}

const FmedaResult& GraphFmea::analyze(GraphFmeaStats* stats) {
  GraphFmeaMetrics& metrics = GraphFmeaMetrics::get();
  metrics.runs.add();
  std::vector<size_t> dirty;
  std::vector<ObjectId> components;
  for (size_t i = 0; i < units_.size(); ++i) {
    if (!units_[i].dirty) continue;
    dirty.push_back(i);
    components.push_back(units_[i].component);
  }
  metrics.units.add(dirty.size());
  if (stats != nullptr) *stats = {units_.size(), dirty.size()};

  // Phase B: the dirty units' single-point analyses (parallel, const model
  // reads). Nothing is stored until every one of them succeeded.
  {
    obs::Span analyze_span("graph_fmea.analyze", &metrics.analyze_seconds);
    std::vector<UnitAnalysis> analyses = analyze_units(*ssam_, components, options_);
    for (size_t k = 0; k < dirty.size(); ++k) {
      units_[dirty[k]].verdicts = std::move(analyses[k].analysis);
    }
  }

  // Phase C (serial): re-emit the dirty units' segments in walk order,
  // splicing each over the span it emitted last time, and skip past the
  // clean ones — rows, warnings and write-backs land in the order a cold
  // walk produces them, for any job count.
  obs::Span emit_span("graph_fmea.emit", &metrics.emit_seconds);
  std::vector<FmedaRow> rows;
  std::vector<std::string> warnings;
  size_t row_at = 0;
  size_t warning_at = 0;
  for (Segment& segment : segments_) {
    const Unit& unit = units_[segment.unit];
    if (unit.dirty) {
      emit_sub(*ssam_, unit.component, unit.path, *unit.verdicts, segment.sub, options_, rows,
               warnings);
      const size_t emitted_rows = rows.size();
      const size_t emitted_warnings = warnings.size();
      splice(result_.rows, row_at, segment.rows, rows);
      splice(result_.warnings, warning_at, segment.warnings, warnings);
      segment.rows = emitted_rows;
      segment.warnings = emitted_warnings;
    }
    row_at += segment.rows;
    warning_at += segment.warnings;
  }
  for (const size_t i : dirty) units_[i].dirty = false;

  const bool vacuous = !result_.has_safety_related();
  if (vacuous != empty_denominator_note_) {
    if (vacuous) {
      result_.warnings.push_back(
          "no safety-related hardware identified; the SPFM denominator is empty and spfm() "
          "reports 1.0 by convention — this is not an ASIL-D claim");
    } else {
      result_.warnings.pop_back();
    }
    empty_denominator_note_ = vacuous;
  }
  return result_;
}

FmedaResult analyze_component(SsamModel& ssam, ObjectId component,
                              const GraphFmeaOptions& options, GraphFmeaStats* stats) {
  GraphFmea fmea(ssam, component, options);
  fmea.analyze(stats);
  return std::move(fmea).result();
}

}  // namespace decisive::core
