// One solve context per fault-injection campaign.
//
// Every fault variant's MNA system differs from the nominal one by (at most)
// one component stamp. A CampaignContext solves the nominal circuit once,
// factors its Jacobian once — sparse (Gilbert–Peierls, sparse.hpp) at or
// above `sparse_min_dim` unknowns, dense below — and answers each fault from
// that one factorisation:
//
//  - the *low-rank branch* takes every fault that keeps the MNA structure:
//    Sherman–Morrison/Woodbury updates whose base solves run against the
//    shared nominal factor, warm-started from the nominal operating point;
//  - the *refactor branch* (sparse factor only) takes structural faults (a
//    voltage source or DC inductor losing its branch unknown) and whatever
//    the low-rank branch declines: a numeric refactorisation or
//    partial_factor against the shared nominal symbolic analysis.
//
// Both branches pass one gate ladder (iteration headroom, a full-system
// residual check, the MCU knife-edge guard). Anything that fails it goes
// back to the caller, who re-runs the fault on the naive dense path — so the
// campaign's output is byte-identical to the naive one, only cheaper.
//
// Thread-safety: a context is immutable after construction. Workers solve
// concurrently against it, each with its own Workspace; the shared sparse
// factor's triangular solves write only workspace scratch.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "decisive/sim/circuit.hpp"
#include "decisive/sim/fault.hpp"
#include "decisive/sim/solver.hpp"

namespace decisive::sim {

/// Why one context branch did (or did not) produce a result. Anything but
/// `Solved` hands the fault on: to the refactor branch, or to the caller's
/// naive path.
enum class BatchOutcome {
  Solved,         ///< converged and passed every gate
  Structural,     ///< fault changes the MNA structure (or has no low-rank form)
  Conditioning,   ///< update rejected: residual gate / singular small system /
                  ///< too many active terms for a profitable low-rank solve
  NotConverged,   ///< Newton did not converge fast enough on the shared factor
  NearThreshold,  ///< result lands on a classification knife edge (MCU supply
                  ///< at its brown-out boundary); naive path must decide
  Disabled,       ///< context unusable (nominal solve failed / trivial system)
};

std::string_view to_string(BatchOutcome outcome) noexcept;

/// What one CampaignContext::try_solve did.
struct CampaignSolve {
  /// The operating point, when a branch converged and passed every gate.
  std::optional<OperatingPoint> point;
  /// Filled like try_dc_operating_point's when `point` is set; iterations
  /// are summed over both branches.
  SolveDiagnostics diagnostics;
  /// The low-rank branch's verdict. `Structural` means the fault never
  /// entered it.
  BatchOutcome lowrank = BatchOutcome::Disabled;
  /// The refactor branch's verdict, when it ran. A set `point` comes from
  /// the refactor branch exactly when this is engaged.
  std::optional<BatchOutcome> refactor;
};

/// Shared per-campaign solve state: nominal operating point, the one
/// factorisation of the nominal Jacobian, and cached A^-1 u columns for
/// every element that can carry a conductance delta.
class CampaignContext {
 public:
  /// Per-worker scratch: low-rank buffers, the sparse solve buffer, and the
  /// refactor branch's own assembly plan and factorisation. Opaque —
  /// everything in it is an implementation detail of the sim library.
  class Workspace {
   public:
    Workspace();
    ~Workspace();
    Workspace(Workspace&&) noexcept;
    Workspace& operator=(Workspace&&) noexcept;

   private:
    friend class CampaignContext;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Solves the nominal circuit (plain Newton, no ladder) and factors its
  /// Jacobian: sparse when `options.sparse`, the system has at least
  /// `options.sparse_min_dim` unknowns and the fill gate passes; dense
  /// otherwise. When the nominal solve fails or the system is trivial, the
  /// context stays constructed but unusable() — every try_solve() reports
  /// Disabled and the campaign runs naive.
  CampaignContext(const Circuit& nominal, const SolveOptions& options);

  [[nodiscard]] bool usable() const noexcept;

  /// True when the nominal factor is sparse (and the refactor branch live).
  [[nodiscard]] bool sparse_factor() const noexcept;

  /// True when `fault` on the nominal circuit preserves the MNA structure
  /// and is expressible as a low-rank (or RHS-only) delta.
  [[nodiscard]] bool eligible(const Fault& fault) const noexcept;

  /// Solves `faulted` (the result of inject_fault for `fault` on the
  /// nominal circuit): the low-rank branch first, then — with a sparse
  /// factor — the refactor branch for whatever it declined. Counted as one
  /// solve in the decisive_solver_* family.
  [[nodiscard]] CampaignSolve try_solve(const Circuit& faulted, const Fault& fault,
                                        Workspace& ws) const;

  /// The nominal operating point (valid when usable()).
  [[nodiscard]] const OperatingPoint& nominal_point() const noexcept;

  ~CampaignContext();
  CampaignContext(CampaignContext&&) noexcept;
  CampaignContext& operator=(CampaignContext&&) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace decisive::sim
