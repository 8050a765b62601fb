// reproduce: regenerates every table EXPERIMENTS.md reports — the paper's
// Tables I-VI, RQ1, RQ2 and the threshold ablation, then the engines
// against their reference procedures (deployment search, ZBDD fault trees,
// graph-FMEA dominators, the fault-injection campaign) — and checks the
// values each table claims. It takes no arguments, prints the tables to
// stdout and exits 1 if any gate failed.
//
//   build/bench/reproduce
//
// A failed gate stops its own section only; the remaining sections still
// run, so one run reports every failure.
#include "reproduce.hpp"

#include <cstdio>
#include <exception>
#include <thread>

int main() {
  using namespace reproduce;
  const struct {
    const char* name;
    void (*run)();
  } sections[] = {
      {"Table I", table1_pll},
      {"Table II", table2_reliability},
      {"Table III", table3_sm_model},
      {"Table IV", table4_fmeda},
      {"Table V", table5_efficiency},
      {"Table VI", table6_scalability},
      {"RQ1", rq1_correctness},
      {"RQ2", rq2_coverage},
      {"threshold ablation", ablation_threshold},
      {"deployment-search ablation", ablation_search},
      {"ZBDD fault trees", ext_fta},
      {"graph FMEA", graph_fmea},
      {"campaign", campaign},
  };
  std::printf("reproduce: %s build, g++ %s, hardware concurrency %u\n\n", DECISIVE_BUILD_TYPE,
              __VERSION__, std::thread::hardware_concurrency());
  int failed = 0;
  for (const auto& section : sections) {
    try {
      section.run();
    } catch (const GateFailure& failure) {
      ++failed;
      std::printf("GATE FAILED (%s): %s\n\n", section.name, failure.what());
    } catch (const std::exception& error) {
      ++failed;
      std::printf("GATE FAILED (%s): unexpected error: %s\n\n", section.name, error.what());
    }
    std::fflush(stdout);
  }
  if (failed > 0) {
    std::printf("%d section(s) failed a gate\n", failed);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
