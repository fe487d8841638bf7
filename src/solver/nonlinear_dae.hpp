// Variable-timestep nonlinear DAE solver (paper phase 2: "support of non
// linear DAEs and their simulation using variable time steps").
//
// Integrates  A x + B dx/dt + g(x) = q(t)  with backward Euler; each step is
// solved by damped Newton iteration, and the step size is controlled by a
// local-truncation-error estimate from the difference between the corrector
// and a linear predictor.
//
// The Jacobian J = A + B/h + dg/dx has a fixed sparsity pattern once the
// nonlinear models have reported their full entry sets, so the solver keeps
// one persistent Jacobian matrix and reuses its symbolic factorization
// (pivot order + fill pattern) across Newton iterations, timesteps, and
// values-only restamps; only a pattern change (full restamp, or a model
// reporting a new entry) re-runs the symbolic analysis.
#ifndef SCA_SOLVER_NONLINEAR_DAE_HPP
#define SCA_SOLVER_NONLINEAR_DAE_HPP

#include <cstdint>
#include <vector>

#include "numeric/sparse.hpp"
#include "solver/equation_system.hpp"

namespace sca::solver {

struct nonlinear_options {
    double h_init = 1e-6;
    double h_min = 1e-15;
    double h_max = 1e-3;
    /// LTE tolerance scales: error is normalized by (lte_abstol + lte_reltol*|x|).
    double lte_abstol = 1e-6;
    double lte_reltol = 1e-4;
};

class nonlinear_dae_solver {
public:
    nonlinear_dae_solver(equation_system& sys, nonlinear_options opt = {});

    /// Start from the state x0 at t0 (e.g. a DC operating point).
    void set_initial_state(std::vector<double> x0, double t0);

    /// Integrate up to exactly t_end (the last step is shortened to hit it).
    void advance_to(double t_end);

    /// The equations jumped (switch events, restamps): restart from the
    /// present state.  The next step is accepted on Newton convergence
    /// alone and leaves no predictor history; error control resumes after.
    void restart() noexcept {
        have_prev_ = false;
        restart_ = true;
    }

    [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
    [[nodiscard]] double time() const noexcept { return t_; }

    // --- statistics (reported by the stiff/variable-step benches) ----------
    [[nodiscard]] std::uint64_t steps_accepted() const noexcept { return accepted_; }
    [[nodiscard]] std::uint64_t steps_rejected() const noexcept { return rejected_; }
    [[nodiscard]] std::uint64_t newton_iterations() const noexcept { return newton_iters_; }
    /// Numeric Jacobian factorization passes (one per Newton iteration).
    [[nodiscard]] std::uint64_t factorizations() const noexcept { return factorizations_; }
    /// Full symbolic analyses; stays flat once the Jacobian pattern settles.
    [[nodiscard]] std::uint64_t symbolic_factorizations() const noexcept {
        return symbolic_factorizations_;
    }

    // --- checkpoint/restore ----------------------------------------------------
    /// Serialize integration state (t, h, x, predictor history, the step
    /// bounds it was built with, a pending restart), the grown
    /// iteration/Jacobian sparsity patterns, the cached Newton LU symbolic
    /// analysis, and statistics.  Matrix *values* are not saved: every
    /// Newton iteration rewrites them from scratch, so only pattern
    /// continuity (and with it the frozen pivot order) matters for
    /// bit-identical resumption.
    void save_state(util::byte_writer& w) const;
    /// Restore onto a freshly constructed solver (same h_min and LTE
    /// tolerances, equation system already overlaid); h_init and h_max,
    /// which the view derives from its timestep, come from the snapshot.
    void restore_state(util::byte_reader& r);

private:
    /// One backward-Euler step of size h from (t_, x_). Returns the Newton
    /// convergence flag; the candidate solution lands in x_candidate_.
    bool try_step(double h);

    /// Normalized LTE estimate of the candidate against the predictor.
    double lte_estimate(double h) const;

    equation_system* sys_;
    nonlinear_options opt_;
    double t_ = 0.0;
    double h_;
    std::vector<double> x_;
    std::vector<double> x_prev_;  // accepted state one step back
    double h_prev_ = 0.0;
    std::vector<double> x_candidate_;
    bool have_prev_ = false;
    bool restart_ = false;  // accept the next step without an LTE check

    // Persistent matrices: iter_mat_ holds A + B/h (values rewritten per
    // step), newton_mat_ the full Jacobian.  Their patterns only ever grow
    // (stale entries stay as explicit zeros), so once the nonlinear models'
    // entry sets settle, the cached symbolic factorization in newton_lu_ is
    // valid for every subsequent iteration.
    num::sparse_matrix_d iter_mat_;
    num::sparse_matrix_d newton_mat_;
    num::sparse_lu_d newton_lu_;
    bool mats_valid_ = false;
    std::uint64_t stamp_generation_ = ~0ULL;

    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t newton_iters_ = 0;
    std::uint64_t factorizations_ = 0;
    std::uint64_t symbolic_factorizations_ = 0;
};

}  // namespace sca::solver

#endif  // SCA_SOLVER_NONLINEAR_DAE_HPP
