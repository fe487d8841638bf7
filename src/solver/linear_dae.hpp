// Fixed-timestep linear DAE solver.
//
// Solves  A x + B dx/dt = q(t)  with backward Euler or the trapezoidal rule
// at a fixed step h.  The iteration matrix (c_a A + B/h) is factored once and
// reused for every step — the "solved without iterations" property the paper
// attributes to linear systems (§3, citing [6]).  Refactoring is tiered:
// a values-only change (stamp-slot update — switch toggle, parameter write —
// or a timestep/method change) rewrites the iteration matrix values through
// positions compiled with its pattern, then looks the new values up in a
// small cache of numeric factorizations keyed by their exact bits: a
// revisited state (switch position x BE/trapezoidal x timestep) re-activates
// its factors, a new one runs a numeric-only refactorization against the
// cached symbolic analysis.  Only a pattern change (full restamp) or a
// refused refactor re-runs the symbolic phase, and that empties the cache.
#ifndef SCA_SOLVER_LINEAR_DAE_HPP
#define SCA_SOLVER_LINEAR_DAE_HPP

#include <cstdint>
#include <vector>

#include "numeric/sparse.hpp"
#include "solver/equation_system.hpp"

namespace sca::solver {

enum class integration_method { backward_euler, trapezoidal };

class linear_dae_solver {
public:
    /// Factor cache bounds: at most this many cached factorizations and at
    /// most this many bytes of them (iteration-matrix key plus L/U values).
    /// A system whose one factorization exceeds the byte budget caches none
    /// and refactors on every change.
    static constexpr std::size_t factor_cache_entries = 8;
    static constexpr std::size_t factor_cache_bytes = 64 * 1024;

    /// `h` is the fixed timestep in seconds.
    linear_dae_solver(equation_system& sys, integration_method method, double h);

    /// Set the initial state (e.g. from a DC solve) and the start time.
    void set_initial_state(std::vector<double> x0, double t0);

    /// Advance one step of size h; afterwards x() is the solution at time().
    void step();

    /// Advance until `t_end` (an integer number of steps; t_end must be
    /// aligned with the step grid within rounding).
    void advance_to(double t_end);

    [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
    [[nodiscard]] double time() const noexcept { return t_; }
    [[nodiscard]] double timestep() const noexcept { return h_; }

    /// Change the timestep (forces a refactor at the next step).
    void set_timestep(double h);

    /// Force rebuild of the iteration matrix (after restamping the system).
    void invalidate();

    /// Take the next step with backward Euler even in trapezoidal mode.
    /// Required after discontinuities (switch events, restamps): the
    /// trapezoidal rule rings indefinitely on algebraic constraints whose
    /// stamps changed, BE re-establishes consistency in one step.
    void force_backward_euler_next() noexcept { be_next_ = true; }

    /// Numeric factorization passes performed (full factorizations
    /// included); re-activating a cached factorization is not a pass.
    [[nodiscard]] std::uint64_t factor_count() const noexcept { return factors_; }
    /// Full symbolic analyses (pivot order + fill pattern). Values-only
    /// restamps keep this flat: only factor_count advances.
    [[nodiscard]] std::uint64_t symbolic_factor_count() const noexcept {
        return symbolic_factors_;
    }
    [[nodiscard]] std::uint64_t solve_count() const noexcept { return solves_; }

    // --- checkpoint/restore ----------------------------------------------------
    /// Serialize integration state (t, x, q_prev, method/timestep flags),
    /// the cached LU symbolic analysis, and the generation/counter book-
    /// keeping.  The equation system is saved separately by its owner.
    void save_state(util::byte_writer& w) const;
    /// Restore onto a freshly constructed solver whose equation system has
    /// already been overlaid: rebuilds the iteration matrix from the
    /// restored A/B values, adopts the frozen pivot order, and refactors —
    /// bit-identical to the factorization the saving process held.  The
    /// factor cache starts with that one factorization.
    void restore_state(util::byte_reader& r);

private:
    using position = num::sparse_matrix_d::position;

    /// One cached numeric factorization and the iteration-matrix values it
    /// factors, compared bit for bit.
    struct cached_factors {
        std::vector<double> key;
        std::uint64_t hash = 0;
        num::sparse_lu_d::numeric_factors factors;
        std::uint64_t last_use = 0;
    };

    void ensure_factored(integration_method m);
    /// Fresh iteration matrix and pattern: rebuild it from A/B, compile
    /// where each A/B entry lands, and empty the factor cache.
    void build_iteration_matrix(double ca);
    /// Values-only rewrite of the iteration matrix through the compiled
    /// positions.
    void assemble_iteration_values(double ca);
    /// Activate a cached factorization of the iteration matrix, or refactor
    /// it (numeric, or symbolic on refusal) and cache the result.
    void factor_sparse();
    /// Store the active factorization, evicting the least recently used.
    void cache_active(std::uint64_t hash);
    /// After a symbolic analysis: drop every cached factorization and size
    /// the cache for the new factors.
    void reset_cache();

    equation_system* sys_;
    integration_method method_;
    double h_;
    double t_ = 0.0;
    std::vector<double> x_;
    std::vector<double> q_prev_;  // q(t) of the accepted point (trapezoidal)
    // Per-step scratch, reused so batched firings never allocate.
    std::vector<double> q1_;
    std::vector<double> bx_;
    std::vector<double> ax_;
    std::vector<double> rhs_;
    std::vector<double> x_next_;
    num::sparse_matrix_d iter_mat_;  // persistent c_a·A + B/h (pattern reused)
    bool iter_mat_valid_ = false;
    // Position in iter_mat_ of each A / B entry, in row-major order; valid
    // for the A / B pattern versions recorded beside them.
    std::vector<position> a_map_;
    std::vector<position> b_map_;
    std::uint64_t a_pattern_ = 0;
    std::uint64_t b_pattern_ = 0;
    num::sparse_lu_d lu_;
    std::vector<cached_factors> cache_;
    std::size_t cache_capacity_ = 0;
    std::uint64_t cache_clock_ = 0;
    std::vector<double> key_;  // scratch: iteration-matrix values, row-major
    bool factored_ = false;
    bool be_next_ = false;
    integration_method factored_method_ = integration_method::backward_euler;
    std::uint64_t stamp_generation_ = ~0ULL;
    std::uint64_t values_generation_ = ~0ULL;
    std::uint64_t factors_ = 0;
    std::uint64_t symbolic_factors_ = 0;
    std::uint64_t solves_ = 0;
};

}  // namespace sca::solver

#endif  // SCA_SOLVER_LINEAR_DAE_HPP
