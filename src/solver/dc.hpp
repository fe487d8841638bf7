// DC (quiescent) operating point computation — the "consistent initial
// state" the paper requires for mixed-signal synchronization (§3: "the
// synchronization also requires the formal definition of a consistent
// initial (quiescent) state for the whole mixed-signal system").
#ifndef SCA_SOLVER_DC_HPP
#define SCA_SOLVER_DC_HPP

#include <iosfwd>
#include <vector>

#include "solver/equation_system.hpp"

namespace sca::solver {

/// Compute x such that A x + g(x) = q(t0).
///
/// Linear path: direct sparse LU of A; if A is singular (states whose DC
/// value is fixed by initial conditions, not by the resistive network), a
/// regularized solve of (A + B/tau) is used, which converges to the DC
/// solution on the resistive subspace and leaves pure-integrator states at 0.
/// Nonlinear path: damped Newton from x = 0 with the same regularization
/// fallback.
[[nodiscard]] std::vector<double> dc_solve(const equation_system& sys, double t0);

/// Human-readable operating-point table: one line per unknown of `sys`
/// (e.g. "v(out)", "i(vs.i)") with its value in `x`, a dc_solve() result.
void write_operating_point(const equation_system& sys, const std::vector<double>& x,
                           std::ostream& os);

}  // namespace sca::solver

#endif  // SCA_SOLVER_DC_HPP
