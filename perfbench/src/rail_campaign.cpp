// rail_campaign: the default fault-injection campaign on a 640-fault rail.
// One iteration is `core::analyze_circuit` with default options plus the
// FMEDA CSV rendering; per-fault solving (sim + the core campaign) does
// nearly all the work. The output must match, byte for byte, the dense
// one-solve-per-fault reference recorded for the seed's class.
#include <sstream>
#include <stdexcept>

#include "decisive/base/csv.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "rail.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = decisive::core;

namespace {

/// Set-ups before the measurement, and as many again after it, so the
/// median samples two points of the host's drifting load.
constexpr int kSetupRepetitions = 3;

/// The recorded digest of the dense reference output for `seed_class`.
std::string recorded_digest(const std::filesystem::path& data, std::uint64_t seed_class) {
  std::istringstream in(read_file(data / "rail_digests.txt"));
  std::uint64_t recorded_class = 0;
  std::string value;
  while (in >> recorded_class >> value) {
    if (recorded_class == seed_class) return value;
  }
  throw std::runtime_error("no rail reference digest recorded for seed class " +
                           std::to_string(seed_class));
}

bool failed_row(const core::FmedaRow& row) {
  return row.outcome == core::FaultOutcome::Crashed ||
         row.outcome == core::FaultOutcome::BudgetExhausted;
}

}  // namespace

void run_rail_campaign(Harness& h) {
  const RunOptions& options = h.options();
  const std::string expected = recorded_digest(options.data, options.seed % kRailSeedClasses);
  const core::ReliabilityModel reliability = rail_reliability();
  const core::CircuitFmeaOptions campaign;  // defaults: jobs 1, every solve tier on

  std::string last_output;
  const auto check = [&](const core::FmedaResult& result, std::string csv) {
    std::uint64_t failed = 0;
    for (const auto& row : result.rows) failed += failed_row(row) ? 1 : 0;
    h.count_operations(result.rows.size(), failed);
    last_output = rail_output(std::move(csv), result.warnings);
    if (digest(last_output) != expected) {
      h.fail_check("rail FMEDA differs from the dense reference of seed class " +
                   std::to_string(options.seed % kRailSeedClasses));
    }
  };

  decisive::sim::BuiltCircuit built;
  const auto set_up = [&] {
    const auto start = Clock::now();
    built = make_rail(options.seed);
    const core::FmedaResult cold = core::analyze_circuit(built, reliability, nullptr, campaign);
    h.add_setup_seconds(seconds_since(start));
    check(cold, decisive::write_csv(cold.to_csv()));
  };
  for (int rep = 0; rep < kSetupRepetitions; ++rep) set_up();

  for (const Phase phase : h.phases()) {
    h.begin_phase(phase);
    if (phase == Phase::Traced) {
      built = in_span("bench.sim.build_rail", [&] { return make_rail(options.seed); });
    }
    while (h.keep_going()) {
      const auto start = Clock::now();
      const core::FmedaResult result = in_span(
          "bench.core.campaign", [&] { return core::analyze_circuit(built, reliability, nullptr, campaign); });
      std::string csv =
          in_span("bench.core.fmeda.csv", [&] { return decisive::write_csv(result.to_csv()); });
      h.record_iteration(seconds_since(start), result.rows.size());
      check(result, std::move(csv));
    }
    h.end_phase();
  }

  // The check must fire on one flipped FMEDA byte.
  std::string corrupted = last_output;
  corrupted[corrupted.size() / 2] ^= 0x01;
  h.expect_check_fires(digest(corrupted) != expected, "rail FMEDA with one flipped byte");

  for (int rep = 0; rep < kSetupRepetitions; ++rep) set_up();
}

}  // namespace perfbench
