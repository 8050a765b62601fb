// The DECISIVE benchmark: one workload per run, a closed loop with one
// client in one thread, printing its metrics as one JSON line.
//
//   perfbench --workload <rail_campaign|paper_loop|edit_loop|deploy_search>
//             --seed <n> --seconds <s> --trace <0|1>
//             --assets <dir> --data <dir> --work <dir>
//
// perfbench/run.py builds this program from source and supplies the three
// directories. Exit codes: 0 correct, 1 an output check failed, 2 bad
// arguments or a failed set-up, 3 a build that must not be timed.
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Harness;

/// Timings from an unoptimised or sanitizer build would mislead, so such a
/// build refuses to measure.
const char* untimeable_build() {
#if !defined(__OPTIMIZE__)
  return "the build is not optimised";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build has a sanitizer";
#else
  return nullptr;
#endif
}

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <rail_campaign|paper_loop|edit_loop|deploy_search>\n"
               "                 --seed <n> --seconds <s> --trace <0|1>\n"
               "                 --assets <dir> --data <dir> --work <dir>\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, void (*)(Harness&)> workloads = {
      {"rail_campaign", perfbench::run_rail_campaign},
      {"paper_loop", perfbench::run_paper_loop},
      {"edit_loop", perfbench::run_edit_loop},
      {"deploy_search", perfbench::run_deploy_search},
  };

  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "assets", "data", "work"}) {
    if (!args.contains(required)) return usage((std::string("missing --") + required).c_str());
  }
  const auto workload = workloads.find(args["workload"]);
  if (workload == workloads.end()) return usage(("unknown workload " + args["workload"]).c_str());
  if (const char* problem = untimeable_build()) {
    std::fprintf(stderr, "perfbench: refusing to time: %s\n", problem);
    return 3;
  }

  perfbench::RunOptions options;
  try {
    options.workload = workload->first;
    options.seed = std::stoull(args["seed"]);
    options.seconds = std::stod(args["seconds"]);
    options.trace = args["trace"] == "1";
    options.assets = args["assets"];
    options.data = args["data"];
    options.work = args["work"];
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  Harness h(options);
  try {
    std::filesystem::create_directories(options.work);
    workload->second(h);
    h.export_trace();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), error.what());
    return 2;
  }
  return h.finish();
}
