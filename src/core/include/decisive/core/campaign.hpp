// Fault-injection campaign engine (paper Section IV-D1, hardened).
//
// The automated FMEA is a campaign: solve the baseline once, then for every
// (component, failure mode) pair inject the fault, re-solve, and compare.
// The campaign is only as trustworthy as its worst-behaved solve, so the
// runner makes each injection robust and observable:
//
//  - every faulted solve goes through the solver recovery ladder
//    (sim::try_dc_operating_point) with iteration and wall-clock budgets;
//  - each fault is classified into a structured FaultOutcome (Converged /
//    RecoveredViaLadder / BudgetExhausted / Singular / NotApplicable) carried
//    on its FmedaRow, instead of being swallowed into free-text warnings;
//  - faults are independent re-simulations, so the runner executes them on a
//    fixed-size std::thread pool with deterministic result ordering — the
//    FMEDA table is byte-identical for any job count.
//
// Campaigns are additionally *infrastructure-grade* (ROADMAP item 5):
//
//  - with CampaignExecution::journal_path set, every completed task is
//    checkpointed to a crash-safe append-only journal
//    (campaign_journal.hpp); a re-run replays the journal and executes only
//    the remaining tasks, byte-identical to an uninterrupted run;
//  - CampaignExecution::shard_index/shard_count partition the task list
//    deterministically across processes; merge_campaign_journals() folds the
//    per-shard journals into the identical unsharded FMEDA;
//  - failure containment: a task worker that throws outside the classified
//    paths yields a structured Crashed outcome; Crashed/BudgetExhausted
//    tasks get one bounded retry (fresh ladder, tighter budget); and a
//    campaign-level circuit breaker re-runs serially, on the main thread,
//    whatever a dying worker left behind instead of losing the campaign.
//
// Warning strings in the result are *derived* from the structured outcomes
// (single source of truth), so the CSV/report and the warnings can never
// disagree.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "decisive/core/campaign_journal.hpp"
#include "decisive/core/circuit_fmea.hpp"
#include "decisive/core/fmeda.hpp"
#include "decisive/core/reliability.hpp"
#include "decisive/core/safety_mechanism.hpp"
#include "decisive/sim/builder.hpp"
#include "decisive/sim/campaign_solver.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"

namespace decisive::core {

/// Runs the fault-injection campaign behind analyze_circuit. Usable directly
/// when the caller wants the task list or parallel execution control.
class CampaignRunner {
 public:
  /// One unit of campaign work: a (component, failure mode) pair, in
  /// deterministic output order.
  struct Task {
    const sim::BuiltComponent* component = nullptr;
    const ComponentReliability* reliability = nullptr;
    const FailureModeSpec* mode = nullptr;
    /// Resolved once per runner: the component's element index in the
    /// circuit (-1 when the circuit has no such element) and the mode's
    /// fault kind (empty when the name is not a known failure mode). A task
    /// that does not resolve becomes a NotApplicable row when it runs.
    int element = -1;
    std::optional<sim::FaultKind> kind;
  };

  /// One slot of the reading table: an observable element of the circuit, in
  /// sim::reading_elements order, resolved once per runner. Rows classify by
  /// slot, never by name.
  struct ReadingSlot {
    std::string name;
    bool goal = false;  ///< counts toward the safety goal
  };

  /// All referenced objects must outlive the runner. `sm_model` may be null.
  CampaignRunner(const sim::BuiltCircuit& built, const ReliabilityModel& reliability,
                 const SafetyMechanismModel* sm_model = nullptr,
                 CircuitFmeaOptions options = {});

  /// The enumerated fault tasks in output order (components without
  /// reliability data are skipped and reported via run()'s warnings).
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept { return tasks_; }

  /// Solves the baseline, executes this shard's share of the tasks on
  /// `options.jobs` worker threads (0 = hardware concurrency) and assembles
  /// the FmedaResult with rows in task order regardless of the job count.
  /// With a journal configured, checkpointed tasks are replayed instead of
  /// re-run. Throws SimulationError when the *baseline* does not solve even
  /// via the recovery ladder — unless `options.execution.best_effort`, which
  /// degrades every pending row to NotApplicable instead.
  [[nodiscard]] FmedaResult run() const;

  /// Identity hash of this campaign: circuit netlist, observables, task
  /// list, classification thresholds and solver/retry configuration — but
  /// not the job count or shard spec, which must not change results. The
  /// journal refuses to resume under a different fingerprint.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// The journal header a run with these options writes/expects.
  [[nodiscard]] CampaignJournalHeader journal_header() const;

  /// Global indices of the tasks this shard executes
  /// (i % shard_count == shard_index), in task order.
  [[nodiscard]] std::vector<size_t> shard_task_indices() const;

 private:
  /// Test hooks of the campaign engine, read from the environment once per
  /// run() (see campaign.cpp).
  struct CrashHooks;

  /// `baseline` holds the baseline reading of every slot. `context` and
  /// `workspace` carry the campaign's shared solve context (null when
  /// batching is off or the context is unusable): the first attempt tries
  /// it, and every fallback or retry re-runs the classic dense ladder.
  [[nodiscard]] FmedaRow run_task(const Task& task, const std::vector<double>& baseline,
                                  const CrashHooks& hooks, const sim::CampaignContext* context,
                                  sim::CampaignContext::Workspace* workspace) const;
  [[nodiscard]] FmedaRow run_task_once(const Task& task, const std::vector<double>& baseline,
                                       const sim::SolveOptions& solver, int attempt,
                                       const CrashHooks& hooks,
                                       const sim::CampaignContext* context,
                                       sim::CampaignContext::Workspace* workspace) const;
  /// An operating point's readings by slot; NaN where the point has none.
  [[nodiscard]] std::vector<double> slot_readings(const sim::OperatingPoint& point) const;

  const sim::BuiltCircuit& built_;
  const SafetyMechanismModel* sm_model_;
  CircuitFmeaOptions options_;
  std::vector<Task> tasks_;
  std::vector<ReadingSlot> slots_;
  std::vector<std::string> skip_warnings_;
};

/// The display warning derived from one row's structured outcome; empty when
/// the outcome needs no warning (Converged). Exposed so reports and tests can
/// verify warnings and CSV always agree.
[[nodiscard]] std::string outcome_warning(const FmedaRow& row);

}  // namespace decisive::core
