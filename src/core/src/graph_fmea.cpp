#include "decisive/core/graph_fmea.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
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

/// One composite component the recursive walk analyses: the component plus
/// its qualified path from the analysis root.
struct Unit {
  ObjectId component = model::kNullObject;
  std::string path;
};

/// Per-unit result of the (parallelisable) analysis phase.
struct UnitAnalysis {
  std::optional<ssam::SinglePointAnalysis> analysis;
  std::exception_ptr error;
};

/// Phase A (serial): collect the analysis units in the exact pre-order the
/// recursive walk visits them. Iterative — nesting depth is bounded by heap.
std::vector<Unit> collect_units(const SsamModel& ssam, ObjectId root,
                                const GraphFmeaOptions& options) {
  std::vector<Unit> units;
  if (ssam.obj(root).refs("subcomponents").empty()) return units;

  std::vector<Unit> stack{{root, ssam.obj(root).get_string("name")}};
  while (!stack.empty()) {
    Unit unit = std::move(stack.back());
    stack.pop_back();
    if (!options.recursive) {
      units.push_back(std::move(unit));
      break;
    }
    const auto& subs = ssam.obj(unit.component).refs("subcomponents");
    // Children in reverse so the LIFO pops them in declaration order.
    for (auto it = subs.rbegin(); it != subs.rend(); ++it) {
      const auto& sub_obj = ssam.obj(*it);
      if (sub_obj.refs("subcomponents").empty()) continue;
      if (sub_obj.refs("ioNodes").empty()) continue;  // warned about in phase C
      stack.push_back({*it, unit.path + "/" + sub_obj.get_string("name")});
    }
    units.push_back(std::move(unit));
  }
  return units;
}

/// Phase B: build each unit's graph and run the single-point analysis —
/// independent const reads of the model, safe to run on a pool. Errors are
/// captured per unit; the caller rethrows the first one in walk order so
/// behaviour is deterministic for any job count.
std::vector<UnitAnalysis> analyze_units(const SsamModel& ssam, const std::vector<Unit>& units,
                                        const GraphFmeaOptions& options) {
  std::vector<UnitAnalysis> analyses(units.size());
  // The pool: the configured job count, capped at the unit count, so a huge
  // --jobs starts (and sizes per-worker heartbeat rows for) only as many
  // threads as there are units.
  unsigned jobs = options.jobs > 0 ? static_cast<unsigned>(options.jobs)
                                   : std::max(1u, std::thread::hardware_concurrency());
  if (units.size() < jobs) jobs = static_cast<unsigned>(std::max<size_t>(units.size(), 1));

  obs::ProgressReporterOptions reporter_options;
  reporter_options.path = options.heartbeat_path;
  reporter_options.phase = "graph-fmea";
  reporter_options.total = units.size();
  reporter_options.workers = static_cast<int>(jobs);
  reporter_options.interval_seconds = options.heartbeat_interval_seconds;
  obs::ProgressReporter reporter(reporter_options);

  const auto analyze_one = [&](size_t i, int worker_id) {
    obs::Span span("graph_fmea.unit", &GraphFmeaMetrics::get().unit_seconds);
    try {
      const ssam::ComponentGraph graph = ssam::build_graph(ssam, units[i].component);
      analyses[i].analysis.emplace(graph);
    } catch (...) {
      analyses[i].error = std::current_exception();
    }
    reporter.task_done(worker_id, analyses[i].error ? "Failed" : "Analyzed");
  };

  if (jobs <= 1) {
    for (size_t i = 0; i < units.size(); ++i) analyze_one(i, 0);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&](int worker_id) {
      for (size_t i = next.fetch_add(1); i < units.size(); i = next.fetch_add(1)) {
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

/// Emits one subcomponent of one unit (Algorithm 1 lines 5–12): appends its
/// rows and warnings to the result and writes each verdict back into the
/// model (component safety analysis model, Step 4a output).
void emit_sub(SsamModel& ssam, const Unit& unit, const ssam::SinglePointAnalysis& analysis,
              ObjectId sub, const GraphFmeaOptions& options, FmedaResult& result) {
  const std::string sub_name = ssam.obj(sub).get_string("name");
  const bool single_point = analysis.is_single_point(sub);

  const std::vector<ObjectId> failure_modes = ssam.obj(sub).refs("failureModes");
  for (const ObjectId fm : failure_modes) {
    FmedaRow row;
    row.component = sub_name;
    row.component_type = ssam.obj(sub).get_string("blockType", sub_name);
    row.component_id = sub;
    row.component_path = unit.path + "/" + sub_name;
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
          if (target == unit.component || analysis.is_single_point(target)) {
            any_critical = true;
            break;
          }
        }
        row.safety_related = any_critical;
        row.effect = any_critical ? EffectClass::IVF : EffectClass::None;
      } else {
        // Algorithm 1 line 11.
        result.warnings.push_back("failure mode '" + row.failure_mode + "' of '" + sub_name +
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
    result.rows.push_back(std::move(row));
  }

  if (options.recursive && !ssam.obj(sub).refs("subcomponents").empty() &&
      ssam.obj(sub).refs("ioNodes").empty()) {
    result.warnings.push_back("composite subcomponent '" + sub_name +
                              "' has no IONodes; cannot recurse");
  }
}

}  // namespace

FmedaResult analyze_component(SsamModel& ssam, ObjectId component,
                              const GraphFmeaOptions& options, GraphFmeaStats* stats) {
  GraphFmeaMetrics& metrics = GraphFmeaMetrics::get();
  metrics.runs.add();
  FmedaResult result;
  result.system = ssam.obj(component).get_string("name");

  // Phase A: enumerate the composite components the walk will visit.
  std::vector<Unit> units;
  {
    obs::Span collect_span("graph_fmea.collect", &metrics.collect_seconds);
    units = collect_units(ssam, component, options);
  }
  metrics.units.add(units.size());
  if (stats != nullptr) stats->units = units.size();

  // Phase B: per-unit single-point analyses (parallel, const model reads).
  std::vector<UnitAnalysis> analyses;
  {
    obs::Span analyze_span("graph_fmea.analyze", &metrics.analyze_seconds);
    analyses = analyze_units(ssam, units, options);
  }
  std::map<ObjectId, size_t> unit_index;
  for (size_t i = 0; i < units.size(); ++i) unit_index[units[i].component] = i;

  // Phase C (serial): replay the recursive walk of Algorithm 1 with an
  // explicit stack, emitting rows/warnings and mutating the model in the
  // exact order the old recursion used — deterministic for any job count.
  obs::Span emit_span("graph_fmea.emit", &metrics.emit_seconds);
  struct Frame {
    size_t unit;
    std::vector<ObjectId> subs;  ///< copied: write-backs create repo objects
    size_t next = 0;
  };
  std::vector<Frame> stack;
  if (!units.empty()) {
    stack.push_back({0, ssam.obj(units[0].component).refs("subcomponents"), 0});
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next >= frame.subs.size()) {
      stack.pop_back();
      continue;
    }
    const size_t unit_i = frame.unit;
    const ObjectId sub = frame.subs[frame.next++];
    emit_sub(ssam, units[unit_i], *analyses[unit_i].analysis, sub, options, result);

    // Algorithm 1 line 14: repeat for composite subcomponents.
    if (options.recursive && !ssam.obj(sub).refs("subcomponents").empty() &&
        !ssam.obj(sub).refs("ioNodes").empty()) {
      stack.push_back({unit_index.at(sub), ssam.obj(sub).refs("subcomponents"), 0});
    }
  }

  if (!result.has_safety_related()) {
    result.warnings.push_back(
        "no safety-related hardware identified; the SPFM denominator is empty and spfm() "
        "reports 1.0 by convention — this is not an ASIL-D claim");
  }
  return result;
}

}  // namespace decisive::core
