// Fixed-timestep linear DAE solver.
//
// Solves  A x + B dx/dt = q(t)  with backward Euler or the trapezoidal rule
// at a fixed step h.  The iteration matrix (c_a A + B/h) is factored once and
// reused for every step — the "solved without iterations" property the paper
// attributes to linear systems (§3, citing [6]).  Refactoring is tiered:
// under one stamp generation the iteration matrix is decided by the
// stamp-slot values, the method and h, so a values-only change (stamp-slot
// update — switch toggle, parameter write — or a timestep/method change)
// looks those up, bit for bit, in a small cache of numeric factorizations:
// a revisited state (switch position x BE/trapezoidal x timestep)
// re-activates its factors without assembling anything, a new one rewrites
// the iteration matrix values through flat index maps and runs a
// numeric-only refactorization against the cached symbolic analysis.  Only
// a pattern change (full restamp) or a refused refactor re-runs the
// symbolic phase, and that empties the cache.
//
// A step is one pass over the CSR rows of A and B (B·x, A·x and the rhs of
// each row) and one triangular solve, with no allocation.  Validation is
// paid per change, not per step: the solver takes A's and B's CSR arrays
// when it builds, restores or re-validates its iteration matrix, and a step
// tests one inline condition (method, stamp and values generations, A/B
// pattern versions) before it runs on them.
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
    /// Factor cache bounds: at most this many factorizations, the active one
    /// included, and at most this many bytes of them (key, L/U values and
    /// pivots).  A system whose factorizations fit the byte budget less than
    /// twice keeps only the active one and refactors on every change.
    static constexpr std::size_t factor_cache_entries = 8;
    static constexpr std::size_t factor_cache_bytes = 64 * 1024;

    /// `h` is the fixed timestep in seconds.
    linear_dae_solver(equation_system& sys, integration_method method, double h);

    /// Set the initial state (e.g. from a DC solve) and the start time.
    void set_initial_state(std::vector<double> x0, double t0);

    /// Advance one step of size h; afterwards x() is the solution at time().
    void step() {
        const integration_method m =
            be_next_ ? integration_method::backward_euler : method_;
        be_next_ = false;
        if (!current(m)) revalidate(m);
        solve_step(m);
    }

    /// Advance until `t_end` (an integer number of steps; t_end must be
    /// aligned with the step grid within rounding).
    void advance_to(double t_end);

    [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
    [[nodiscard]] double time() const noexcept { return t_; }
    [[nodiscard]] double timestep() const noexcept { return h_; }

    /// Change the timestep (forces a refactor at the next step).
    void set_timestep(double h);

    /// The equations jumped (switch events, restamps): restart from the
    /// present state with one backward-Euler step, even in trapezoidal mode.
    /// The trapezoidal rule rings indefinitely on algebraic constraints
    /// whose stamps changed; BE re-establishes consistency in one step.
    void restart() noexcept { be_next_ = true; }

    /// Numeric factorization passes performed (full factorizations
    /// included); re-activating a cached factorization is not a pass.
    [[nodiscard]] std::uint64_t factor_count() const noexcept { return factors_; }
    /// Full symbolic analyses (pivot order + fill pattern). Values-only
    /// restamps keep this flat: only factor_count advances.
    [[nodiscard]] std::uint64_t symbolic_factor_count() const noexcept {
        return symbolic_factors_;
    }
    [[nodiscard]] std::uint64_t solve_count() const noexcept { return solves_; }
    /// Numeric refactors refused under the frozen pivot order (a pivot
    /// degenerated or the factors grew past the guard), each followed by a
    /// fresh symbolic analysis.
    [[nodiscard]] std::uint64_t refactor_fallback_count() const noexcept {
        return refactor_fallbacks_;
    }

    // --- checkpoint/restore ----------------------------------------------------
    /// Serialize integration state (t, x, q_prev, method/timestep flags),
    /// the cached LU symbolic analysis, and the generation/counter book-
    /// keeping.  The equation system is saved separately by its owner.
    void save_state(util::byte_writer& w) const;
    /// Restore onto a freshly constructed solver whose equation system has
    /// already been overlaid: rebuilds the iteration matrix from the
    /// restored A/B values, adopts the frozen pivot order, and refactors —
    /// bit-identical to the factorization the saving process held.  The
    /// factor cache starts empty, with that factorization active.
    void restore_state(util::byte_reader& r);

private:
    /// An inactive numeric factorization of the current symbolic analysis
    /// and the key it factors.
    struct cached_factors {
        std::vector<double> key;
        num::sparse_lu_d::numeric_factors factors;
        std::uint64_t last_use = 0;
    };

    /// The CSR arrays of A or B.  Valid while that matrix's pattern version
    /// equals the one recorded beside them (a_pattern_ / b_pattern_): only a
    /// structural edit, which changes the version, reallocates them.
    struct csr_arrays {
        const std::size_t* ptr = nullptr;
        const std::size_t* col = nullptr;
        const double* val = nullptr;
    };

    /// True while the active factors and the CSR arrays fit the system and
    /// method `m`: nothing moved since the last (re)validation.
    [[nodiscard]] bool current(integration_method m) const noexcept {
        return factored_ && m == factored_method_ &&
               stamp_generation_ == sys_->stamp_generation() &&
               values_generation_ == sys_->values_generation() &&
               a_pattern_ == sys_->a().pattern_version() &&
               b_pattern_ == sys_->b().pattern_version();
    }
    /// Bring the factors and the CSR arrays up to date for method `m`: a
    /// fresh analysis after a pattern change, else a factor-cache lookup or
    /// a numeric refactor.
    void revalidate(integration_method m);
    /// One step on validated factors and arrays.
    void solve_step(integration_method m);
    /// The factor-cache key of the iteration matrix for c_a = `ca`: c_a, h
    /// and the stamp-slot values.
    void fill_key(double ca, std::vector<double>& key) const;
    /// True when `key` is the key fill_key(ca) would write, compared bit
    /// for bit against the live stamp-slot values without copying them.
    [[nodiscard]] bool key_matches(const std::vector<double>& key, double ca) const;
    /// Fresh iteration matrix and pattern: rebuild it from A/B, record where
    /// each A/B value lands in it, and take the CSR arrays of A and B.
    void build_iteration_matrix(double ca);
    /// Values-only rewrite of the iteration matrix through the index maps.
    void assemble_iteration_values(double ca);
    /// Make the factors keyed (ca, h, live slot values) active if the LU
    /// holds them or the cache does (an exchange: the active ones take the
    /// cached slot).
    bool activate_cached(double ca);
    /// Move the active factors into the cache, evicting the least recently
    /// used entry when it is full.
    void stash_active();
    /// Numeric refactor of the iteration matrix; a refused one falls back
    /// to analyze().
    void refactor();
    /// Full factorization: a new pivot order, so the cache empties and is
    /// sized for the new factors.
    void analyze();
    /// Cache capacity for factors of the current analysis.
    void size_cache();

    equation_system* sys_;
    integration_method method_;
    double h_;
    double t_ = 0.0;
    std::vector<double> x_;
    std::vector<double> q_prev_;  // q(t) of the accepted point (trapezoidal)
    // Per-step scratch, reused so batched firings never allocate.
    std::vector<double> q1_;
    std::vector<double> rhs_;
    std::vector<double> x_next_;
    num::sparse_matrix_d iter_mat_;  // persistent c_a·A + B/h (pattern reused)
    // Position in iter_mat_ of each A / B value, in storage order, and the
    // CSR arrays of A / B; valid for the A / B pattern versions recorded
    // beside them (0: none yet).
    std::vector<num::sparse_matrix_d::position> a_map_;
    std::vector<num::sparse_matrix_d::position> b_map_;
    csr_arrays a_csr_;
    csr_arrays b_csr_;
    std::uint64_t a_pattern_ = 0;
    std::uint64_t b_pattern_ = 0;
    num::sparse_lu_d lu_;
    std::vector<double> key_;  // key of the factors active in lu_
    std::vector<cached_factors> cache_;
    std::size_t cache_capacity_ = 0;
    std::uint64_t cache_clock_ = 0;
    bool factored_ = false;
    bool be_next_ = false;
    integration_method factored_method_ = integration_method::backward_euler;
    std::uint64_t stamp_generation_ = ~0ULL;
    std::uint64_t values_generation_ = ~0ULL;
    std::uint64_t factors_ = 0;
    std::uint64_t symbolic_factors_ = 0;
    std::uint64_t solves_ = 0;
    std::uint64_t refactor_fallbacks_ = 0;
};

}  // namespace sca::solver

#endif  // SCA_SOLVER_LINEAR_DAE_HPP
