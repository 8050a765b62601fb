#include "metrics.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>

namespace perfbench {

namespace {

using Value = std::optional<double>;

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

/// Registry counter delta over the traced phase; nullopt when the counter
/// no longer exists.
Value delta(const PhaseRecord& r, std::string_view name) {
  const auto after = r.counters_after.find(name);
  if (after == r.counters_after.end()) return std::nullopt;
  const auto before = r.counters_before.find(name);
  return after->second - (before == r.counters_before.end() ? 0.0 : before->second);
}

Value sum(Value a, Value b) {
  if (!a || !b) return std::nullopt;
  return *a + *b;
}

/// num / den, 0 when the layer did no work in the phase.
Value ratio(Value num, Value den) {
  if (!num || !den) return std::nullopt;
  return *den == 0.0 ? 0.0 : *num / *den;
}

Value scaled(Value v, double factor) {
  if (!v) return std::nullopt;
  return *v * factor;
}

/// Bucket-resolution percentile of a histogram's observations during the
/// traced phase (upper bound of the bucket holding the p-quantile).
Value histogram_percentile(const PhaseRecord& r, std::string_view name, double p) {
  const auto after = r.hist_after.find(name);
  const auto bounds = r.hist_bounds.find(name);
  if (after == r.hist_after.end() || bounds == r.hist_bounds.end()) return std::nullopt;
  std::vector<double> counts = after->second;
  if (const auto before = r.hist_before.find(name); before != r.hist_before.end()) {
    for (std::size_t i = 0; i < counts.size() && i < before->second.size(); ++i) {
      counts[i] -= before->second[i];
    }
  }
  const double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  if (total == 0.0) return 0.0;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= p * total) {
      return i < bounds->second.size() ? bounds->second[i] : bounds->second.back();
    }
  }
  return bounds->second.back();
}

/// Percentile of a LayerSpan's self times in the traced phase, in seconds.
double span_percentile(const PhaseRecord& r, std::string_view span, double p) {
  const auto it = r.span_self_seconds.find(span);
  return it == r.span_self_seconds.end() ? 0.0 : percentile(it->second, p);
}

/// Percentile of a recorded sample series; nullopt when the series was
/// never recorded (its source could not be read).
Value series_percentile(const PhaseRecord& r, std::string_view series, double p) {
  const auto it = r.series.find(series);
  if (it == r.series.end()) return std::nullopt;
  return percentile(it->second, p);
}

Value series_sum(const PhaseRecord& r, std::string_view series) {
  const auto it = r.series.find(series);
  if (it == r.series.end()) return std::nullopt;
  return std::accumulate(it->second.begin(), it->second.end(), 0.0);
}

Value series_count(const PhaseRecord& r, std::string_view series) {
  const auto it = r.series.find(series);
  if (it == r.series.end()) return std::nullopt;
  return static_cast<double>(it->second.size());
}

struct LayerMetric {
  const char* name;
  const char* unit;
  /// The workload on which the metric must be measurable ("" = every one).
  const char* home;
  std::function<Value(const MetricInputs&)> compute;
};

Value tasks(const MetricInputs& in) { return delta(in.traced, "decisive_campaign_tasks_total"); }

Value span_ms(const MetricInputs& in, const char* span) {
  return span_percentile(in.traced, span, 0.5) * 1e3;
}

Value span_us(const MetricInputs& in, const char* span) {
  return span_percentile(in.traced, span, 0.5) * 1e6;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      // rail_campaign: per-fault solving, moves faults_per_s.
      {"sim.solves_per_fault", "count", "rail_campaign",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_solver_solves_total"), tasks(in));
       }},
      {"sim.newton_iters_per_fault", "count", "rail_campaign",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_solver_iterations_total"), tasks(in));
       }},
      {"sim.solve_us.p50", "us", "rail_campaign",
       [](const MetricInputs& in) {
         return scaled(histogram_percentile(in.traced, "decisive_solver_solve_seconds", 0.5), 1e6);
       }},
      {"sim.sparse.refactors_per_fault", "count", "rail_campaign",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_sparse_refactors_total"), tasks(in));
       }},
      {"sim.campaign.fast_path_share", "ratio", "rail_campaign",
       [](const MetricInputs& in) {
         return ratio(sum(delta(in.traced, "decisive_campaign_batched_rows_total"),
                          delta(in.traced, "decisive_campaign_sparse_rows_total")),
                      tasks(in));
       }},
      {"sim.campaign.fallback_share", "ratio", "rail_campaign",
       [](const MetricInputs& in) {
         const Value fallbacks = sum(delta(in.traced, "decisive_campaign_batch_fallback_total"),
                                     delta(in.traced, "decisive_campaign_sparse_fallback_total"));
         const Value accepted = sum(delta(in.traced, "decisive_campaign_batched_rows_total"),
                                    delta(in.traced, "decisive_campaign_sparse_rows_total"));
         return ratio(fallbacks, sum(fallbacks, accepted));
       }},
      {"core.campaign.fault_us.p50", "us", "rail_campaign",
       [](const MetricInputs& in) {
         return scaled(histogram_percentile(in.traced, "decisive_campaign_task_seconds", 0.5),
                       1e6);
       }},
      {"core.fmeda.csv_ms", "ms", "rail_campaign",
       [](const MetricInputs& in) { return span_ms(in, "bench.core.fmeda.csv"); }},
      {"core.campaign.retries", "count", "rail_campaign",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_campaign_retries_total"),
                      delta(in.traced, "decisive_campaign_runs_total"));
       }},
      {"sim.build_circuit_ms", "ms", "rail_campaign",
       [](const MetricInputs& in) { return span_ms(in, "bench.sim.build_rail"); }},

      // paper_loop: the fixed costs of the real toolchain, move workflow_ms.
      {"drivers.parse_mdl_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.drivers.parse_mdl"); }},
      {"sim.build_circuit_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.sim.build_circuit"); }},
      {"drivers.workbook_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.drivers.workbook"); }},
      {"core.campaign.fmea_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.core.campaign.fmea"); }},
      {"core.campaign.fmeda_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.core.campaign.fmeda"); }},
      {"base.csv_write_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.base.csv_write"); }},
      {"assurance.evaluate_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.assurance.evaluate"); }},
      {"model.load_xmi_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.model.load_xmi"); }},
      {"core.graph_fmea_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.core.graph_fmea"); }},
      {"fta.synthesize_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.fta.synthesize"); }},
      {"fta.quantify_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.fta.quantify"); }},
      {"fta.lfm_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.fta.lfm"); }},
      {"core.sm_search.optimal_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.core.sm_search.optimal"); }},
      {"core.sm_search.pareto_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.core.sm_search.pareto"); }},
      {"transform.aadl_import_us", "us", "paper_loop",
       [](const MetricInputs& in) { return span_us(in, "bench.transform.aadl_import"); }},
      // Solves that never reached the sparse kernel. The sparse counters
      // register on first use, so their absence means no sparse factor ran.
      {"sim.dense_solve_share", "ratio", "paper_loop",
       [](const MetricInputs& in) -> Value {
         const Value solves = delta(in.traced, "decisive_solver_solves_total");
         if (!solves) return std::nullopt;
         if (*solves == 0.0) return 0.0;
         const double sparse =
             delta(in.traced, "decisive_sparse_factors_total").value_or(0.0);
         return std::max(0.0, 1.0 - sparse / *solves);
       }},

      // edit_loop: the session service, move the edit and read round trips.
      {"session.set_fit_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.traced, "request.set-fit", 0.5); }},
      {"session.rewire_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.traced, "request.rewire", 0.5); }},
      {"session.add_failure_mode_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) {
         return series_percentile(in.traced, "request.add-failure-mode", 0.5);
       }},
      {"session.deploy_sm_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) {
         return series_percentile(in.traced, "request.deploy-sm", 0.5);
       }},
      {"session.reanalyze_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) {
         return series_percentile(in.traced, "request.reanalyze.edit", 0.5);
       }},
      {"session.reanalyze_ms.p90", "ms", "edit_loop",
       [](const MetricInputs& in) {
         return series_percentile(in.traced, "request.reanalyze.edit", 0.9);
       }},
      {"session.fingerprint_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) {
         return series_percentile(in.traced, "reply.fingerprint_ms", 0.5);
       }},
      {"core.graph_fmea.analyze_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.traced, "reply.analyze_ms", 0.5); }},
      {"session.hit_rate", "ratio", "edit_loop",
       [](const MetricInputs& in) {
         return ratio(series_sum(in.traced, "reply.hits"), series_sum(in.traced, "reply.units"));
       }},
      {"session.widened_per_edit", "count", "edit_loop",
       [](const MetricInputs& in) {
         return ratio(series_sum(in.traced, "reply.widened"),
                      series_count(in.traced, "reply.widened"));
       }},
      {"session.short_circuit_share", "ratio", "edit_loop",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_session_short_circuits_total"),
                      delta(in.traced, "decisive_session_reanalyses_total"));
       }},
      {"fta.request_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.traced, "request.fta", 0.5); }},
      {"fta.request_cache_hit_share", "ratio", "edit_loop",
       [](const MetricInputs& in) {
         const Value hits = delta(in.traced, "decisive_fta_request_cache_hits_total");
         return ratio(hits, sum(hits, delta(in.traced, "decisive_fta_request_cache_misses_total")));
       }},
      {"core.impact_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.traced, "request.impact", 0.5); }},

      // deploy_search: Step 4b and FTA at scale, move deploy_s.p50.
      {"core.sm_search.greedy_ms", "ms", "deploy_search",
       [](const MetricInputs& in) { return span_ms(in, "bench.core.sm_search.greedy"); }},
      {"core.sm_search.pareto_ms", "ms", "deploy_search",
       [](const MetricInputs& in) { return span_ms(in, "bench.core.sm_search.pareto"); }},
      {"core.sm_search.lfm_pareto_ms", "ms", "deploy_search",
       [](const MetricInputs& in) { return span_ms(in, "bench.core.sm_search.lfm_pareto"); }},
      {"core.sm_search.label_prune_share", "ratio", "deploy_search",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_sm_search_labels_pruned_total"),
                      delta(in.traced, "decisive_sm_search_labels_total"));
       }},
      {"fta.synthesize_ms", "ms", "deploy_search",
       [](const MetricInputs& in) { return span_ms(in, "bench.fta.synthesize"); }},
      {"fta.state_cache_hit_share", "ratio", "deploy_search",
       [](const MetricInputs& in) {
         return ratio(delta(in.traced, "decisive_fta_state_cache_hits_total"),
                      delta(in.traced, "decisive_fta_states_total"));
       }},
      {"fta.quantify_ms", "ms", "deploy_search",
       [](const MetricInputs& in) { return span_ms(in, "bench.fta.quantify"); }},
      {"fta.lfm_ms", "ms", "deploy_search",
       [](const MetricInputs& in) { return span_ms(in, "bench.fta.lfm"); }},

      // Every workload: the cost of tracing, failures, and the end-to-end
      // views that only some workloads can size (all from the untraced phase).
      {"trace_overhead_share", "ratio", "",
       [](const MetricInputs& in) -> Value {
         const double untraced = median(in.untraced.iteration_seconds);
         if (untraced == 0.0) return 0.0;
         return median(in.traced.iteration_seconds) / untraced - 1.0;
       }},
      {"failed_share", "ratio", "",
       [](const MetricInputs& in) -> Value {
         return static_cast<double>(in.failed) /
                static_cast<double>(std::max<std::uint64_t>(in.attempted, 1));
       }},
      {"workflow_ms.p50", "ms", "",
       [](const MetricInputs& in) -> Value { return median(in.untraced.iteration_seconds) * 1e3; }},
      {"workflow_ms.p90", "ms", "",
       [](const MetricInputs& in) -> Value {
         return percentile(in.untraced.iteration_seconds, 0.9) * 1e3;
       }},
      {"workflow.samples", "count", "",
       [](const MetricInputs& in) -> Value {
         return static_cast<double>(in.untraced.iteration_seconds.size());
       }},
      {"edit_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.untraced, "edit", 0.5); }},
      {"edit_ms.p90", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.untraced, "edit", 0.9); }},
      {"query_ms.p50", "ms", "edit_loop",
       [](const MetricInputs& in) { return series_percentile(in.untraced, "query", 0.5); }},
      {"deploy_s.p50", "s", "deploy_search",
       [](const MetricInputs& in) {
         return scaled(series_percentile(in.untraced, "decision", 0.5), 1e-3);
       }},
  };
  return metrics;
}

}  // namespace

// The gated latency is the 10th percentile, not the median: on a shared
// host the median of a 20 s run moves by up to a quarter between runs as
// neighbours load the machine, while the fastest tenth of iterations tracks
// the program's own cost within a few percent. The median and the 90th
// percentile are still reported, ungated, with the per-layer metrics.
std::vector<Metric> end_to_end_metrics(const MetricInputs& in) {
  std::vector<double> rows_per_second;
  for (std::size_t i = 0; i < in.untraced.iteration_seconds.size(); ++i) {
    if (in.untraced.iteration_seconds[i] > 0.0) {
      rows_per_second.push_back(in.untraced.iteration_rows[i] / in.untraced.iteration_seconds[i]);
    }
  }
  return {
      {"setup_s", median(in.setup_seconds), "s"},
      {"peak_rss_mib", in.peak_rss_mib, "MiB"},
      {"faults_per_s.p90", percentile(rows_per_second, 0.9), "1/s"},
      {"workflow_ms.p10", percentile(in.untraced.iteration_seconds, 0.1) * 1e3, "ms"},
  };
}

std::vector<Metric> per_layer_metrics(const MetricInputs& in, std::vector<std::string>& missing) {
  std::vector<Metric> out;
  for (const LayerMetric& metric : layer_metrics()) {
    const Value value = metric.compute(in);
    const bool home = metric.home[0] == '\0' || in.workload == metric.home;
    if (!value.has_value() && home) missing.emplace_back(metric.name);
    out.push_back({metric.name, value.has_value() ? *value : (home ? -1.0 : 0.0), metric.unit});
  }
  return out;
}

}  // namespace perfbench
