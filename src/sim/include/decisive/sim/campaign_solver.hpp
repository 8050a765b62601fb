// One solve context per fault-injection campaign.
//
// Every fault variant's MNA system differs from the nominal one by one
// element: the fault is a one-element override (faulted_element), never a
// copied circuit. A CampaignContext takes the campaign's baseline operating
// point, factors the nominal Jacobian once at that point — sparse
// (Gilbert–Peierls, sparse.hpp) at or above `sparse_min_dim` unknowns,
// dense below — and answers each fault from that one factorisation:
//
//  - the *low-rank branch* takes every fault that keeps the MNA structure.
//    Its Newton iterates live in the span of cached A_nom^-1 columns: the
//    nominal solution plus columns weighted by the fault's own RHS delta and
//    the moved diodes' companion-current deltas, then a Woodbury correction
//    for the conductance deltas — O(k·n) per iteration, no RHS re-stamp and
//    no triangular solve;
//  - the *refactor branch* (sparse factor only) takes structural faults (a
//    voltage source or DC inductor losing its branch unknown) and whatever
//    the low-rank branch declines: a numeric refactorisation or
//    partial_factor against the shared nominal symbolic analysis.
//
// Both branches pass one gate ladder (iteration headroom, the cold-start
// walk, a full-system residual check against a fresh RHS assembly, a
// one-step refinement of the solution's error, the MCU knife-edge guard).
// Anything that fails it goes back to the caller, who re-runs the fault on
// the naive dense path — so the campaign's output is byte-identical to the
// naive one, only cheaper.
//
// Thread-safety: a context is immutable after construction. Workers solve
// concurrently against it, each with its own Workspace; the shared sparse
// factor's triangular solves write only workspace scratch.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

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
  Disabled,       ///< context unusable (singular or trivial nominal system)
};

std::string_view to_string(BatchOutcome outcome) noexcept;

/// What one CampaignContext::try_solve did.
struct CampaignSolve {
  /// True when a branch converged and passed every gate.
  bool solved = false;
  /// When solved: one reading per slot of the context's reading table
  /// (reading_elements()), valued like OperatingPoint::readings. NaN marks a
  /// slot the fault removed — an MCU opened or shorted into a resistor.
  std::vector<double> readings;
  /// When solved: a first-order bound on each reading's error, from one
  /// refinement step against the fault's exact matrix (0 for MCU status
  /// readings, whose supply edge the context gates itself).
  std::vector<double> reading_error;
  /// Filled like try_dc_operating_point's when `solved`; iterations are
  /// summed over both branches.
  SolveDiagnostics diagnostics;
  /// The low-rank branch's verdict. `Structural` means the fault never
  /// entered it.
  BatchOutcome lowrank = BatchOutcome::Disabled;
  /// The refactor branch's verdict, when it ran. A solve comes from the
  /// refactor branch exactly when this is engaged.
  std::optional<BatchOutcome> refactor;
};

/// Shared per-campaign solve state: the nominal linearisation point, the one
/// factorisation of the nominal Jacobian there, the nominal solution at that
/// linearisation, cached A^-1 u columns for every element that can carry a
/// conductance or current delta (A^-1 e on the branch row for a voltage
/// source), and the reading table.
class CampaignContext {
 public:
  /// Per-worker scratch: the Newton run and the last try_solve result,
  /// low-rank buffers, the sparse solve buffer, and the refactor branch's own
  /// assembly plan and factorisation. Opaque — everything in it is an
  /// implementation detail of the sim library.
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

  /// Linearises every diode of `nominal` at its terminals' voltage
  /// difference in `baseline` — the nominal circuit's converged operating
  /// point, which the caller solved — and factors the Jacobian there: sparse
  /// when `options.sparse`, the system has at least `options.sparse_min_dim`
  /// unknowns and the fill gate passes; dense otherwise. Runs no Newton of
  /// its own. When the system is trivial or singular, or `baseline` does
  /// not hold one voltage per node, the context stays constructed but
  /// unusable() — every try_solve() reports Disabled and the campaign runs
  /// naive.
  CampaignContext(const Circuit& nominal, const OperatingPoint& baseline,
                  const SolveOptions& options);

  [[nodiscard]] bool usable() const noexcept;

  /// True when the nominal factor is sparse (and the refactor branch live).
  [[nodiscard]] bool sparse_factor() const noexcept;

  /// True when replacing nominal element `element` by `failed` (its
  /// faulted_element form) preserves the MNA structure and is expressible as
  /// a low-rank (or RHS-only) delta.
  [[nodiscard]] bool eligible(std::size_t element, const Element& failed) const noexcept;

  /// Solves the nominal circuit with element `element` replaced by `failed`:
  /// the low-rank branch first, then — with a sparse factor — the refactor
  /// branch for whatever it declined. Counted as one solve in the
  /// decisive_solver_* family. The result lives in `ws` until its next
  /// try_solve: the workspace owns every buffer of the solve, readings
  /// included, so a worker that reuses one allocates nothing per fault once
  /// its buffers have grown, and gets what a fresh workspace would give.
  [[nodiscard]] const CampaignSolve& try_solve(std::size_t element, const Element& failed,
                                               Workspace& ws) const;

  /// The reading table: the nominal circuit's observable elements
  /// (reading_elements()), one CampaignSolve::readings slot each.
  [[nodiscard]] const std::vector<std::size_t>& reading_elements() const noexcept;

  ~CampaignContext();
  CampaignContext(CampaignContext&&) noexcept;
  CampaignContext& operator=(CampaignContext&&) noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace decisive::sim
