// The equation interface: the solver-agnostic description layer the paper
// mandates ("SystemC-AMS must provide appropriate views ... The interface
// layer provides the solver with the system of equations to solve").
//
// A system describes
//
//      A x(t) + B dx/dt + g(x) = q(t)
//
// where A, B are sparse stamp matrices, g is an optional set of nonlinear
// element contributions, and q(t) collects constant, time-function, and
// externally driven (TDF input slot) sources.  Every continuous-time view
// (ELN netlists via MNA, LSF signal-flow graphs, transfer functions,
// state-space blocks) lowers to this form; every solver (fixed-step linear,
// variable-step nonlinear Newton, DC, AC, noise) consumes it.
//
// Stamps come in two flavours.  Plain add_a/add_b contributions are static:
// changing them requires clear_stamps() + a full restamp (which bumps the
// stamp generation and invalidates every cached factorization, symbolic
// included).  *Stamp slots* are the incremental path: a component allocates
// a named value slot once at elaboration (add_stamp) and wires weighted
// references to it into A/B (stamp_a/stamp_b); later set_stamp() calls
// rewrite only the affected matrix entries — the sparsity pattern is
// untouched, only the values generation advances, and solvers respond with
// a numeric-only refactorization against their cached symbolic analysis.
#ifndef SCA_SOLVER_EQUATION_SYSTEM_HPP
#define SCA_SOLVER_EQUATION_SYSTEM_HPP

#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "numeric/sparse.hpp"

namespace sca::util {
class byte_writer;
class byte_reader;
}  // namespace sca::util

namespace sca::solver {

/// Dense triplet used by nonlinear elements to report Jacobian entries.
struct jacobian_entry {
    std::size_t row;
    std::size_t col;
    double value;
};

/// A nonlinear element: given the current iterate x, add its contribution to
/// the residual g(x) and its partial derivatives to the Jacobian triplets.
using nonlinear_fn = std::function<void(const std::vector<double>& x,
                                        std::vector<double>& residual,
                                        std::vector<jacobian_entry>& jacobian)>;

/// Time-dependent autonomous source contribution to one equation.
struct rhs_source {
    std::size_t row;
    std::function<double(double t)> value;
};

/// Small-signal AC stimulus entry.
struct ac_source {
    std::size_t row;
    std::complex<double> amplitude;
};

/// Noise source: weighted injections into equation rows (e.g. +1/-1 on the
/// two KCL rows of a resistor) plus a power spectral density function.
struct noise_source {
    std::vector<std::pair<std::size_t, double>> injections;
    std::function<double(double f)> psd;  // in V^2/Hz or A^2/Hz
    std::string name;
};

/// Handle of a runtime-updatable stamp value slot (see class comment).
using stamp_handle = std::size_t;
inline constexpr stamp_handle no_stamp_handle = static_cast<stamp_handle>(-1);

class equation_system {
public:
    equation_system() = default;

    /// Add an unknown; returns its index.
    std::size_t add_unknown(std::string name);
    [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
    [[nodiscard]] const std::string& unknown_name(std::size_t i) const { return names_[i]; }

    /// Reset all stamps (including stamp slots) but keep the unknowns: the
    /// full-restamp path for topology/pattern changes.
    void clear_stamps();

    // --- linear stamps -------------------------------------------------------
    void add_a(std::size_t row, std::size_t col, double v);
    void add_b(std::size_t row, std::size_t col, double v);

    [[nodiscard]] const num::sparse_matrix_d& a() const noexcept { return a_; }
    [[nodiscard]] const num::sparse_matrix_d& b() const noexcept { return b_; }

    // --- stamp slots (values-only incremental updates) -----------------------
    /// Allocate a value slot with its initial value.
    stamp_handle add_stamp(double initial_value);
    /// Stamp `weight * value(h)` into A/B at (row, col) and register the
    /// dependency so set_stamp(h) can rewrite the entry later.
    void stamp_a(stamp_handle h, std::size_t row, std::size_t col, double weight);
    void stamp_b(stamp_handle h, std::size_t row, std::size_t col, double weight);
    /// Update a slot value; rewrites every dependent A/B entry (replaying
    /// all that entry's contributions in stamping order, so the result is
    /// bit-identical to a full restamp with the new value) and advances the
    /// values generation. No-op when the value is unchanged.
    void set_stamp(stamp_handle h, double value);
    /// Every slot value, by handle.  Under one stamp generation these decide
    /// the values of A and B.
    [[nodiscard]] std::span<const double> stamp_values() const noexcept {
        return slot_values_;
    }

    /// Build the slot -> entries index after (re)stamping completes, and
    /// record where each slot-dependent entry's value lives in A/B. Lazy:
    /// set_stamp calls it on demand (also after a new A/B entry moved the
    /// positions); views call it eagerly after assembly.
    void finalize_stamps();

    // --- right-hand side -----------------------------------------------------
    void add_rhs_constant(std::size_t row, double v);
    void add_rhs_source(std::size_t row, std::function<double(double)> fn);

    /// Reserve an externally driven slot (e.g. a TDF-driven source value).
    /// Returns the slot id; the owner sets it before each solver step.
    std::size_t add_input(std::size_t row);
    void set_input(std::size_t slot, double v);
    [[nodiscard]] double input(std::size_t slot) const { return inputs_[slot].value; }

    /// Assemble q(t) from constants, time functions, and input slots.
    [[nodiscard]] std::vector<double> rhs(double t) const;

    /// Allocation-free variant: assemble q(t) into `q` (resized as needed).
    /// Fixed-step solvers call this once per step with a reused buffer.
    void rhs_into(double t, std::vector<double>& q) const;

    // --- nonlinear -----------------------------------------------------------
    void add_nonlinear(nonlinear_fn fn) { nonlinear_.push_back(std::move(fn)); }
    [[nodiscard]] bool is_linear() const noexcept { return nonlinear_.empty(); }

    /// Evaluate g(x) and its Jacobian triplets at the iterate x.
    void eval_nonlinear(const std::vector<double>& x, std::vector<double>& residual,
                        std::vector<jacobian_entry>& jacobian) const;

    // --- small-signal / noise descriptions ------------------------------------
    void add_ac_source(std::size_t row, std::complex<double> amplitude);
    [[nodiscard]] const std::vector<ac_source>& ac_sources() const noexcept {
        return ac_sources_;
    }

    void add_noise_source(std::vector<std::pair<std::size_t, double>> injections,
                          std::function<double(double)> psd, std::string name);
    [[nodiscard]] const std::vector<noise_source>& noise_sources() const noexcept {
        return noise_sources_;
    }

    // --- change tracking -------------------------------------------------------
    /// Incremented by clear_stamps(); a change means the sparsity pattern
    /// may have moved — solvers must re-run symbolic analysis.
    [[nodiscard]] std::uint64_t stamp_generation() const noexcept { return generation_; }
    /// Incremented by set_stamp() value rewrites; a change with an unchanged
    /// stamp generation means a numeric-only refactorization suffices.
    [[nodiscard]] std::uint64_t values_generation() const noexcept {
        return values_generation_;
    }

    // --- checkpoint/restore ----------------------------------------------------
    /// Serialize the mutable numeric state: A/B patterns + values, slot
    /// values, rhs constants, input slot values, generation counters.  The
    /// structural description (unknowns, ledgers, sources) is assumed to be
    /// reproducible by re-running the owning view's build, so restore_state
    /// expects to run on a freshly built system and only overlays values.
    void save_state(util::byte_writer& w) const;
    /// Overlay saved numeric state onto this (freshly rebuilt) system.
    /// Refuses — sca::util::error with context "snapshot" — when the rebuilt
    /// structure (unknown count, sparsity patterns, slot/input counts) does
    /// not match the saved one.
    void restore_state(util::byte_reader& r);

private:
    struct input_slot {
        std::size_t row;
        double value = 0.0;
    };

    enum class matrix_id : std::uint8_t { a, b };

    /// One additive term of a matrix entry: a constant (slot ==
    /// no_stamp_handle, value == weight) or `weight * slots_[slot]`.
    struct contribution {
        stamp_handle slot;
        double weight;
    };

    /// Ordered contribution list of one slot-referencing (row, col) matrix
    /// entry: a prefix constant folding all earlier static adds, then the
    /// slot and static terms in stamping order.  Purely static entries
    /// carry no ledger at all.
    struct entry_ledger {
        matrix_id which;
        std::size_t row;
        std::size_t col;
        std::vector<contribution> terms;
        num::sparse_matrix_d::position pos = 0;  // set by finalize_stamps
    };

    static std::uint64_t entry_key(std::size_t row, std::size_t col) noexcept {
        return (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint64_t>(col);
    }

    [[nodiscard]] num::sparse_matrix_d& matrix(matrix_id which) noexcept {
        return which == matrix_id::a ? a_ : b_;
    }
    void append_static_term(matrix_id which, std::size_t row, std::size_t col, double v);
    void append_slot_term(matrix_id which, std::size_t row, std::size_t col,
                          stamp_handle h, double weight);

    std::vector<std::string> names_;
    num::sparse_matrix_d a_;
    num::sparse_matrix_d b_;
    std::vector<double> rhs_constant_;
    std::vector<rhs_source> rhs_sources_;
    std::vector<input_slot> inputs_;
    std::vector<nonlinear_fn> nonlinear_;
    std::vector<ac_source> ac_sources_;
    std::vector<noise_source> noise_sources_;
    std::uint64_t generation_ = 0;
    std::uint64_t values_generation_ = 0;

    std::vector<double> slot_values_;
    std::vector<entry_ledger> ledgers_;
    // (row, col) -> index into ledgers_, per matrix; used while stamping.
    std::unordered_map<std::uint64_t, std::size_t> ledger_index_a_;
    std::unordered_map<std::uint64_t, std::size_t> ledger_index_b_;
    std::vector<std::vector<std::size_t>> slot_entries_;  // slot -> dependent ledgers
    bool slots_finalized_ = false;
    // A/B pattern versions the compiled ledger positions belong to.
    std::uint64_t compiled_a_pattern_ = 0;
    std::uint64_t compiled_b_pattern_ = 0;
};

}  // namespace sca::solver

#endif  // SCA_SOLVER_EQUATION_SYSTEM_HPP
