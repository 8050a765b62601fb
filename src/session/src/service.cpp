#include "decisive/session/service.hpp"

#include <chrono>
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "decisive/base/csv.hpp"
#include "decisive/base/error.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/graph_fmea.hpp"
#include "decisive/core/impact.hpp"
#include "decisive/core/sm_search.hpp"
#include "decisive/fta/engine.hpp"
#include "decisive/fta/lfm.hpp"
#include "decisive/fta/quantify.hpp"
#include "decisive/drivers/datasource.hpp"
#include "decisive/drivers/mdl.hpp"
#include "decisive/model/xmi.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/obs/log.hpp"
#include "decisive/obs/registry.hpp"
#include "decisive/obs/span.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::session {

namespace {

using ssam::ObjectId;
using ssam::SsamModel;

std::string format_ms(double seconds) { return format_number(seconds * 1e3, 3) + "ms"; }

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Service-level instrumentation. Registered up front (not lazily) so a
/// `metrics` request always exposes the full catalogue — including the
/// re-analysis and latency series — even before the first reanalyze.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& request_errors;
  obs::Counter& model_loads;
  obs::Counter& reanalyses;
  obs::Counter& short_circuits;
  obs::Counter& fta_cache_hits;
  obs::Counter& fta_cache_misses;
  obs::Gauge& spfm;
  obs::Gauge& rows;
  obs::Histogram& request_seconds;
  obs::Histogram& reanalyze_seconds;

  static ServiceMetrics& get() {
    auto& registry = obs::Registry::global();
    static ServiceMetrics metrics{
        registry.counter("decisive_session_requests_total"),
        registry.counter("decisive_session_request_errors_total"),
        registry.counter("decisive_session_model_loads_total"),
        registry.counter("decisive_session_reanalyses_total"),
        registry.counter("decisive_session_short_circuits_total"),
        registry.counter("decisive_fta_request_cache_hits_total"),
        registry.counter("decisive_fta_request_cache_misses_total"),
        registry.gauge("decisive_session_spfm"),
        registry.gauge("decisive_session_rows"),
        registry.histogram("decisive_session_request_seconds"),
        registry.histogram("decisive_session_reanalyze_seconds")};
    return metrics;
  }
};

/// The resident state of one service run: the loaded model, its analysis
/// root, the resident graph FMEA (its last result and the units that edits
/// since then have marked) and the number of those edits.
class Service {
 public:
  Service(std::ostream& out, const core::GraphFmeaOptions& analysis)
      : out_(out), analysis_(analysis) {
    ServiceMetrics::get();  // registers the whole catalogue
  }

  /// Dispatches one request line; returns false when the loop should end.
  bool handle(const std::string& line) {
    const std::string trimmed{trim(line)};
    if (trimmed.empty() || trimmed.front() == '#') return true;
    const std::vector<std::string> tokens = split(trimmed, ' ');
    const std::string& command = tokens.front();
    ServiceMetrics& metrics = ServiceMetrics::get();
    metrics.requests.add();
    obs::Span span("session.request", &metrics.request_seconds);
    try {
      if (command == "quit") {
        out_ << "ok\n";
        return false;
      }
      if (command == "help") cmd_help();
      else if (command == "load") cmd_load(tokens);
      else if (command == "set-fit") cmd_set_fit(tokens);
      else if (command == "rewire") cmd_rewire(tokens);
      else if (command == "add-failure-mode") cmd_add_failure_mode(tokens);
      else if (command == "deploy-sm") cmd_deploy_sm(tokens);
      else if (command == "impact") cmd_impact(tokens);
      else if (command == "campaign") cmd_campaign(tokens);
      else if (command == "pareto") cmd_pareto(tokens);
      else if (command == "fta") cmd_fta(tokens);
      else if (command == "reanalyze") cmd_reanalyze();
      else if (command == "table") cmd_table();
      else if (command == "result") cmd_result();
      else if (command == "metrics") cmd_metrics();
      else if (command == "stats") cmd_stats();
      else if (command == "save") cmd_save(tokens);
      else throw ModelError("unknown command '" + command + "' (try: help)");
      out_ << "ok\n";
    } catch (const Error& error) {
      // The protocol answer goes to the client; the stderr diagnostic goes
      // through the leveled logger so scripts piping stdout stay clean.
      metrics.request_errors.add();
      obs::log(obs::LogLevel::Info,
               "session request '" + command + "' failed: " + error.what());
      out_ << "error: " << error.what() << "\n";
    }
    out_.flush();
    return true;
  }

  void load(const std::string& path, const std::string& component_name) {
    auto model = std::make_unique<SsamModel>();
    model::load_xmi_file(model->repo(), model->meta(), path);
    const ObjectId root = model->find_by_name(ssam::cls::Component, component_name);
    if (root == model::kNullObject) {
      throw ModelError("no component named '" + component_name + "' in " + path);
    }
    model_ = std::move(model);
    root_ = root;
    fmea_.reset();  // the next reanalyze walks the new model cold
    note_edit(root_);
    ServiceMetrics::get().model_loads.add();
    out_ << "loaded " << path << " (" << model_->size() << " elements), root '"
         << component_name << "'\n";
  }

 private:
  SsamModel& require_model() {
    if (!model_) throw ModelError("no model loaded (use: load <model.ssam> <component>)");
    return *model_;
  }

  /// Called after every change to the resident model (each write verb and
  /// `load`) with the component the change names: the resident analysis
  /// marks the units that component belongs to, and the last result and the
  /// cached `fta` replies describe the model as it was before.
  void note_edit(ObjectId changed) {
    ++pending_edits_;
    fta_replies_.clear();
    if (fmea_) fmea_->mark(changed);
  }

  /// True when the last result describes the current model state.
  [[nodiscard]] bool up_to_date() const { return fmea_ && pending_edits_ == 0; }

  /// The FMEA of the current model state, re-analysing first when an edit
  /// is pending — no reader may combine the edited model with an old FMEA.
  const core::FmedaResult& current_result() {
    if (!up_to_date()) cmd_reanalyze();
    return fmea_->result();
  }

  ObjectId component_named(const std::string& name) {
    require_model();
    const ObjectId id = model_->find_by_name(ssam::cls::Component, name);
    if (id == model::kNullObject) throw ModelError("no component named '" + name + "'");
    return id;
  }

  /// The first IONode named `name` among `parent`'s own IONodes and then its
  /// subcomponents': the only IONodes a relationship of `parent` may wire
  /// (ssam::build_graph rejects any other).
  ObjectId io_node_in_scope(ObjectId parent, const std::string& name) {
    const auto named = [&](ObjectId owner) {
      for (const ObjectId node : model_->obj(owner).refs("ioNodes")) {
        if (model_->obj(node).get_string("name") == name) return node;
      }
      return model::kNullObject;
    };
    ObjectId id = named(parent);
    for (const ObjectId sub : model_->obj(parent).refs("subcomponents")) {
      if (id != model::kNullObject) break;
      id = named(sub);
    }
    if (id == model::kNullObject) {
      const std::string parent_name = model_->obj(parent).get_string("name");
      throw ModelError("no IONode named '" + name + "' on '" + parent_name +
                       "' or its subcomponents");
    }
    return id;
  }

  static void expect_arity(const std::vector<std::string>& tokens, size_t n,
                           const char* usage) {
    if (tokens.size() != n) throw ModelError(std::string("usage: ") + usage);
  }

  void cmd_help() {
    out_ << "commands:\n"
            "  load <model.ssam> <component>      bind the session to a model\n"
            "  set-fit <component> <fit>          edit: component FIT\n"
            "  rewire <parent> <src-io> <dst-io>  edit: add a connection between\n"
            "      IONodes of <parent> or of its subcomponents\n"
            "  add-failure-mode <component> <name> <distribution> <nature>\n"
            "  deploy-sm <component> <name> <coverage> <cost-hours> [<failure-mode>]\n"
            "  impact <component>                 change-impact report\n"
            "  campaign <model.mdl> <reliability-dir> [<journal> [<heartbeat>]]\n"
            "      journal-backed fault-injection campaign on a circuit model;\n"
            "      progress heartbeat JSON lands next to the journal (or at\n"
            "      <heartbeat>), watchable live via `same status`\n"
            "      (resumes from <journal> when it holds a compatible run)\n"
            "  pareto <catalogue> [<epsilon>]     (cost, SPFM) deployment front as CSV\n"
            "  fta [<mission-hours> [<max-order>]]  ZBDD fault tree of the root:\n"
            "      cut sets, exact top-event probability, importance, LFM\n"
            "      (reply cached until the next edit)\n"
            "  reanalyze                          FMEA + stats (replays the last\n"
            "      result when nothing was edited since)\n"
            "  table                              last FMEDA table\n"
            "  result                             last SPFM / ASIL\n"
            "  metrics                            Prometheus-style instrumentation dump\n"
            "  stats                              cumulative session stats\n"
            "  save <model.ssam>                  persist the model\n"
            "  quit\n";
  }

  void cmd_load(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 3, "load <model.ssam> <component>");
    load(tokens[1], tokens[2]);
  }

  void cmd_set_fit(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 3, "set-fit <component> <fit>");
    const ObjectId component = component_named(tokens[1]);
    model_->obj(component).set_real("fit", parse_double(tokens[2]));
    note_edit(component);
    out_ << "fit(" << tokens[1] << ") = " << tokens[2] << "\n";
  }

  void cmd_rewire(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 4, "rewire <parent> <source-io> <target-io>");
    const ObjectId parent = component_named(tokens[1]);
    const ObjectId source = io_node_in_scope(parent, tokens[2]);
    model_->connect(parent, source, io_node_in_scope(parent, tokens[3]));
    note_edit(parent);
    out_ << "wired " << tokens[2] << " -> " << tokens[3] << " in " << tokens[1] << "\n";
  }

  void cmd_add_failure_mode(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 5, "add-failure-mode <component> <name> <distribution> <nature>");
    const ObjectId component = component_named(tokens[1]);
    model_->add_failure_mode(component, tokens[2], parse_double(tokens[3]), tokens[4]);
    note_edit(component);
    out_ << "failure mode '" << tokens[2] << "' added to " << tokens[1] << "\n";
  }

  void cmd_deploy_sm(const std::vector<std::string>& tokens) {
    if (tokens.size() != 5 && tokens.size() != 6) {
      throw ModelError(
          "usage: deploy-sm <component> <name> <coverage> <cost-hours> [<failure-mode>]");
    }
    const ObjectId component = component_named(tokens[1]);
    ObjectId covers = model::kNullObject;
    if (tokens.size() == 6) {
      for (const ObjectId fm : model_->obj(component).refs("failureModes")) {
        if (model_->obj(fm).get_string("name") == tokens[5]) covers = fm;
      }
      if (covers == model::kNullObject) {
        throw ModelError("no failure mode named '" + tokens[5] + "' on '" + tokens[1] + "'");
      }
    }
    model_->add_safety_mechanism(component, tokens[2], parse_double(tokens[3]),
                                 parse_double(tokens[4]), covers);
    note_edit(component);
    out_ << "mechanism '" << tokens[2] << "' deployed on " << tokens[1] << "\n";
  }

  void cmd_impact(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 2, "impact <component>");
    const ObjectId component = component_named(tokens[1]);
    out_ << core::impact_of_change(*model_, component).to_text(*model_);
  }

  /// Journal-backed circuit campaign, independent of the resident SSAM
  /// model: it touches neither model_ nor the last result, so the resident
  /// analysis (reanalyze etc.) is unaffected by campaigns run through the
  /// same service.
  void cmd_campaign(const std::vector<std::string>& tokens) {
    if (tokens.size() < 3 || tokens.size() > 5) {
      throw ModelError("usage: campaign <model.mdl> <reliability-dir> [<journal> [<heartbeat>]]");
    }
    const auto mdl = drivers::parse_mdl_file(tokens[1]);
    const auto built = sim::build_circuit(mdl);
    const auto workbook = drivers::DriverRegistry::global().open(tokens[2]);
    const auto reliability = core::ReliabilityModel::from_source(*workbook, "Reliability");
    core::CircuitFmeaOptions options;
    options.jobs = analysis_.jobs;
    if (tokens.size() >= 4) options.execution.journal_path = tokens[3];
    if (tokens.size() == 5) options.execution.heartbeat_path = tokens[4];
    // Announce the heartbeat before the (long) run so a client watching the
    // stream knows where `same status` can observe the campaign live.
    std::string heartbeat = options.execution.heartbeat_path;
    if (heartbeat.empty() && !options.execution.journal_path.empty()) {
      heartbeat = options.execution.journal_path + ".heartbeat.json";
    }
    if (!heartbeat.empty()) {
      out_ << "heartbeat " << heartbeat << "\n";
      out_.flush();
    }
    const core::FmedaResult result =
        core::analyze_circuit(built, reliability, nullptr, options);
    out_ << "campaign " << result.outcome_summary() << "\n";
    out_ << "rows " << result.rows.size() << " spfm " << format_percent(result.spfm())
         << " " << core::achieved_asil(result.spfm()) << " warnings "
         << result.warnings.size() << "\n";
  }

  /// Safety-mechanism Pareto front on the session's current analysis,
  /// rendered through the exact same front_to_csv as `same sm-search`, so
  /// both surfaces emit identical artefacts for the same model state.
  void cmd_pareto(const std::vector<std::string>& tokens) {
    if (tokens.size() != 2 && tokens.size() != 3) {
      throw ModelError("usage: pareto <catalogue> [<epsilon>]");
    }
    const core::FmedaResult& fmea = current_result();
    const auto source = drivers::DriverRegistry::global().open(tokens[1]);
    const std::string_view table_name =
        source->table("SafetyMechanisms") != nullptr ? "SafetyMechanisms" : "";
    const auto catalogue = core::SafetyMechanismModel::from_source(*source, table_name);
    core::ParetoOptions options;
    options.jobs = analysis_.jobs;
    if (tokens.size() == 3) options.epsilon = parse_double(tokens[2]);
    const auto front = core::pareto_front(fmea, catalogue, options);
    out_ << write_csv(core::front_to_csv(fmea, front));
    out_ << "front: " << front.size() << " deployment(s)\n";
  }

  /// ZBDD fault-tree analysis of the session root: minimal cut sets, exact
  /// quantification and the ISO 26262 latent/multi-point classification
  /// against the FMEA of the current model state. The rendered reply is
  /// cached per (mission, max-order) until the next edit, so repeated
  /// requests on an unchanged model replay without re-synthesising.
  void cmd_fta(const std::vector<std::string>& tokens) {
    if (tokens.size() > 3) throw ModelError("usage: fta [<mission-hours> [<max-order>]]");
    const core::FmedaResult& fmea = current_result();
    const double mission = tokens.size() > 1 ? parse_double(tokens[1]) : 10000.0;
    // Before the reply cache: a NaN key would match any cached mission.
    fta::validate_mission_hours(mission);
    const long long order = tokens.size() > 2 ? parse_int(tokens[2]) : 0;
    if (order < 0) throw ModelError("fta: <max-order> must be >= 0 (0 = unbounded)");
    const auto max_order = static_cast<size_t>(order);

    ServiceMetrics& metrics = ServiceMetrics::get();
    const std::pair key{mission, max_order};
    if (const auto it = fta_replies_.find(key); it != fta_replies_.end()) {
      metrics.fta_cache_hits.add();
      out_ << it->second;
      return;
    }
    metrics.fta_cache_misses.add();

    const auto tree =
        fta::synthesize_fault_tree_zbdd(*model_, root_, {.max_order = max_order});
    const auto quant = fta::quantify(tree, mission);
    const auto lfm = fta::classify_latent(*model_, tree, fmea);
    char line[160];
    std::snprintf(line, sizeof line,
                  "cut-sets %zu exact %.6e rare-event %.6e mission %.0fh\n",
                  tree.cut_sets.size(), quant.exact_probability, quant.rare_event_bound,
                  mission);
    std::string reply = tree.to_text() + std::string(line);
    for (const auto& imp : quant.importance) {
      std::snprintf(line, sizeof line, "importance %s birnbaum %.4e fv %.4f raw %.3f rrw %s\n",
                    imp.label.c_str(), imp.birnbaum, imp.fussell_vesely, imp.raw,
                    imp.indispensable ? "inf" : format_number(imp.rrw, 3).c_str());
      reply += line;
    }
    reply += lfm.to_text();
    // Edits clear the cache; bound the footprint between them too.
    if (fta_replies_.size() >= 64) fta_replies_.clear();
    fta_replies_.emplace(key, reply);
    out_ << reply;
  }

  /// Replays the resident result when no edit is pending. Otherwise it
  /// re-analyses: cold after `load`, and after typed edits only the units
  /// those edits marked (core::GraphFmea). The reply's unit, dirty and time
  /// fields keep the layout clients parse: `hits` counts the units replayed
  /// and `misses` those re-analysed, `dirty changed` is the number of edits
  /// absorbed, and the fingerprint time and widening are always zero.
  void cmd_reanalyze() {
    require_model();
    ServiceMetrics& metrics = ServiceMetrics::get();
    metrics.reanalyses.add();
    obs::Span span("session.reanalyze", &metrics.reanalyze_seconds);
    const auto start = std::chrono::steady_clock::now();
    const size_t edits = pending_edits_;
    const bool short_circuit = up_to_date();
    size_t misses = 0;
    double analyze_seconds = 0.0;
    if (short_circuit) {
      metrics.short_circuits.add();
    } else {
      core::GraphFmeaStats stats;
      if (fmea_) {
        fmea_->analyze(&stats);
      } else {
        core::GraphFmea cold(*model_, root_, analysis_);
        cold.analyze(&stats);
        fmea_.emplace(std::move(cold));
      }
      units_ = stats.units;
      misses = stats.analysed;
      pending_edits_ = 0;
      analyze_seconds = seconds_since(start);
    }
    const core::FmedaResult& result = fmea_->result();
    const double spfm = result.spfm();
    metrics.spfm.set(spfm);
    metrics.rows.set(static_cast<double>(result.rows.size()));
    const size_t hits = units_ - misses;
    if (short_circuit) out_ << "short-circuit (model unchanged)\n";
    out_ << "rows " << result.rows.size() << " spfm " << format_percent(spfm) << " "
         << result.asil_label(spfm) << "\n";
    out_ << "units " << units_ << " hits " << hits << " misses " << misses << " hit-rate "
         << format_percent(units_ > 0 ? static_cast<double>(hits) / static_cast<double>(units_)
                                      : 0.0)
         << "\n";
    out_ << "dirty changed " << edits << " widened 0\n";
    out_ << "time fingerprint " << format_ms(0.0) << " analyze " << format_ms(analyze_seconds)
         << " total " << format_ms(seconds_since(start)) << "\n";
  }

  const core::FmedaResult& last_result() {
    require_model();
    if (!fmea_) throw ModelError("no analysis yet (use: reanalyze)");
    return fmea_->result();
  }

  void cmd_table() {
    const core::FmedaResult& result = last_result();
    out_ << result.to_text().render() << "\n";
    for (const auto& warning : result.warnings) {
      out_ << "note: " << warning << "\n";
    }
  }

  void cmd_result() {
    const core::FmedaResult& result = last_result();
    const double spfm = result.spfm();
    out_ << "spfm " << format_percent(spfm) << "\n";
    out_ << "asil " << result.asil_label(spfm) << "\n";
    out_ << "rows " << result.rows.size() << " safety-related "
         << result.safety_related_component_count() << " warnings "
         << result.warnings.size() << "\n";
  }

  void cmd_metrics() { out_ << obs::Registry::global().to_prometheus(); }

  void cmd_stats() {
    ServiceMetrics& metrics = ServiceMetrics::get();
    out_ << "requests " << metrics.requests.value() << " reanalyses "
         << metrics.reanalyses.value() << " model-loads " << metrics.model_loads.value() << "\n";
    out_ << "short-circuits " << metrics.short_circuits.value() << " pending-edits "
         << pending_edits_ << "\n";
  }

  void cmd_save(const std::vector<std::string>& tokens) {
    expect_arity(tokens, 2, "save <model.ssam>");
    model::save_xmi_file(tokens[1], require_model().repo(), model_->meta());
    out_ << "model saved to " << tokens[1] << "\n";
  }

  std::ostream& out_;
  core::GraphFmeaOptions analysis_;
  std::unique_ptr<SsamModel> model_;
  ObjectId root_ = model::kNullObject;
  /// The resident analysis; empty until the first reanalyze after `load`.
  std::optional<core::GraphFmea> fmea_;
  size_t units_ = 0;          ///< analysis units of the resident analysis
  size_t pending_edits_ = 0;  ///< edits since its result was computed
  /// Rendered `fta` replies keyed on (mission, max-order) — see cmd_fta.
  std::map<std::pair<double, size_t>, std::string> fta_replies_;
};

}  // namespace

int run_service(std::istream& in, std::ostream& out, const ServiceOptions& options) {
  Service service(out, options.analysis);
  if (!options.model_path.empty()) {
    try {
      service.load(options.model_path, options.component);
    } catch (const Error& error) {
      obs::log(obs::LogLevel::Error,
               std::string("session initial load failed: ") + error.what());
      out << "error: " << error.what() << "\n";
      return 2;
    }
  }
  out << "same session ready\n";
  out.flush();
  std::string line;
  while (std::getline(in, line)) {
    if (!service.handle(line)) break;
  }
  return 0;
}

}  // namespace decisive::session
