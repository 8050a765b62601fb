// The `same session` service: a long-lived line-protocol loop that keeps one
// SSAM model and its last analysis resident, so the DECISIVE Step 4a/4b
// iteration (edit → re-analyze → inspect) never pays a model reload: a
// re-analysis with no edit since the last one replays the resident result,
// and one after typed edits re-analyses only the units those edits name.
//
// Protocol (full grammar in DESIGN.md §9): one request per line; every
// request is answered by zero or more informational lines followed by a
// status line — "ok" or "error: <message>". Blank lines and lines starting
// with '#' are ignored (script-friendly). The loop ends on "quit" or EOF.
#pragma once

#include <iosfwd>
#include <string>

#include "decisive/core/graph_fmea.hpp"

namespace decisive::session {

/// Start-up configuration of one service run.
struct ServiceOptions {
  std::string model_path;  ///< optional: model to load before the loop starts
  std::string component;   ///< root component name (required with model_path)
  core::GraphFmeaOptions analysis;  ///< analysis settings for every reanalyze
};

/// Runs the service loop, reading requests from `in` and writing responses
/// to `out`. Returns the process exit code: 0 on a clean quit/EOF, 2 when
/// the initial load specified in `options` fails.
int run_service(std::istream& in, std::ostream& out, const ServiceOptions& options = {});

}  // namespace decisive::session
