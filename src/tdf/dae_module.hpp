// Embedding of continuous-time equation clusters into the dataflow world
// (paper §3: "Continuous behaviour encapsulated in static dataflow modules").
//
// A dae_module owns one equation_system and advances it by one TDF timestep
// per activation.  Linear systems use the fixed-step linear DAE solver
// (factor once, solve per step); systems with nonlinear elements
// transparently switch to the variable-step Newton solver, which takes as
// many internal steps as the error control demands and resynchronizes at
// every TDF sample point (paper phase 2).
//
// Both continuous-time views (ELN networks, LSF systems) are dae_modules,
// and their elements (ELN components, LSF blocks) are dae_elements: one
// registry, one teardown rule and one per-step hook dispatch serve both.
#ifndef SCA_TDF_DAE_MODULE_HPP
#define SCA_TDF_DAE_MODULE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "solver/dc.hpp"
#include "solver/equation_system.hpp"
#include "solver/linear_dae.hpp"
#include "solver/nonlinear_dae.hpp"
#include "tdf/module.hpp"

namespace sca::tdf {

class dae_module;

/// An element of a continuous-time view (an ELN component, an LSF block).
/// It registers with its view at construction and leaves it on destruction;
/// teardown order is free, since whichever of element and view dies first
/// unlinks from the other.  Constructing or destroying an element on a
/// built view requests a restamp.
class dae_element : public de::object {
public:
    ~dae_element() override;

protected:
    dae_element(std::string name, dae_module& view);

    /// The view this element stamps into.
    [[nodiscard]] dae_module& view() const noexcept { return *view_; }

private:
    friend class dae_module;

    // --- per-step hooks (the view calls them around each solver step) -----
    // An element overrides the ones it needs, at any access level.  The
    // defaults do nothing but record that they ran, so after the first step
    // the view calls only elements with a real hook.  They are private so
    // that no override can call them and be dropped by mistake.

    /// Move TDF/DE input samples into the equations: input slots, stamp
    /// slots (update_stamp_value), or a request_restamp() for new stamps.
    virtual void read_inputs() { default_hooks_ |= default_read; }
    /// Move solution values to TDF/DE output ports.
    virtual void write_outputs() { default_hooks_ |= default_write; }

    static constexpr std::uint8_t default_read = 1;
    static constexpr std::uint8_t default_write = 2;
    std::uint8_t default_hooks_ = 0;  // defaults seen running on this object
    dae_module* view_;                // null once the view is destroyed
};

class dae_module : public module {
public:
    /// Unlinks the elements still registered, so their destructors do not
    /// reach back into a dead view.
    ~dae_module() override;

    /// The shared equation system (the paper's "equation interface"): AC and
    /// noise analyses operate on it directly.  Assembles on first use and
    /// applies a pending restamp, so it always reflects the live elements.
    [[nodiscard]] solver::equation_system& equations();

    /// Current continuous state vector (valid after the first activation):
    /// the running solver's solution, or the state before any solver ran.
    /// The reference follows the running solver: it shows each new solution
    /// but ends when the solver is replaced (new unknowns, a restore), so
    /// index or copy it where it is read.
    [[nodiscard]] const std::vector<double>& state() const noexcept {
        if (linear_) return linear_->x();
        if (nonlinear_) return nonlinear_->x();
        return state_;
    }

    /// Integration method for the linear fixed-step path.
    void set_integration_method(solver::integration_method m) { method_ = m; }

    /// Assemble equations if not done yet (for AC/noise before a transient).
    void build_now();

    /// Rebuild the equations from scratch before the next step (or the next
    /// equations() call): for a stamp *pattern* change.  The solver re-runs
    /// symbolic analysis.  Element construction and destruction request it.
    void request_restamp() { restamp_requested_ = true; }

    /// Write a new stamp-slot value (switch toggle, parameter change) and
    /// schedule a values-only refresh: no rebuild, the solver refactors
    /// numerically.
    void update_stamp_value(solver::stamp_handle h, double v);

    /// Per-step solver statistics: numeric factorization passes, and full
    /// symbolic analyses (pivot order + fill pattern). A values-only restamp
    /// advances only the former.
    [[nodiscard]] std::uint64_t factorizations() const noexcept;
    [[nodiscard]] std::uint64_t symbolic_factorizations() const noexcept;
    /// Linear-solver refactors refused under the frozen pivot order and
    /// redone as a full factorization (see linear_dae_solver).
    [[nodiscard]] std::uint64_t refactor_fallbacks() const noexcept {
        return linear_ ? linear_->refactor_fallback_count() : 0;
    }

    /// A dae_module tolerates dynamic-TDF retiming natively: a cluster
    /// timestep change only moves h, which the linear solver absorbs as a
    /// values-only numeric refactor of the iteration matrix (c_a A + B/h)
    /// and the nonlinear solver by resynchronizing its internal variable
    /// step at the new sample points.
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }

    /// One step.  A singular system fails naming this view and the unknown
    /// without a pivot, e.g. "net: ... v(floating)".
    void processing() final;

    // --- checkpoint/restore (core/snapshot) ---------------------------------
    /// Serialize assembly flags, the continuous state, the equation
    /// system's values, and the active solver.  Restore re-runs
    /// build_equations() on the rebuilt components, overlays the equation
    /// values (refusing on a sparsity-pattern mismatch), then recreates and
    /// restores the solver so its frozen pivot order replays bit-identically.
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override;
    void restore_state(util::byte_reader& r) override;

protected:
    explicit dae_module(const de::module_name& nm) : module(nm) {}

    /// Direct system access without triggering assembly; views use this to
    /// register unknowns during model construction and to stamp inside
    /// build_equations().
    [[nodiscard]] solver::equation_system& raw_system() noexcept { return sys_; }

    /// The registered elements in construction order (the stamping order).
    [[nodiscard]] const std::vector<dae_element*>& elements() const noexcept {
        return elements_;
    }

    // --- customization points for the concrete views (ELN, LSF) -------------
    /// Stamp all elements into `raw_system()`.
    virtual void build_equations() = 0;
    /// Initial state at t=0; default is the DC operating point.
    virtual std::vector<double> initial_state();

    /// Continuous time of the sample being produced (seconds).
    [[nodiscard]] double solve_time() const noexcept { return solve_time_; }

private:
    friend class dae_element;
    void attach(dae_element& e);
    void detach(dae_element& e);
    void read_elements();
    void write_elements();
    void rebuild();
    void start_solver(double h, double t0);

    std::vector<dae_element*> elements_;
    // Elements with a real read or write hook, in registration order; valid
    // while hooks_pruned_.
    std::vector<dae_element*> read_hooks_;
    std::vector<dae_element*> write_hooks_;
    bool hooks_pruned_ = false;

    solver::equation_system sys_;
    std::unique_ptr<solver::linear_dae_solver> linear_;
    std::unique_ptr<solver::nonlinear_dae_solver> nonlinear_;
    // The state a solver starts from; while one runs, state() reads its x().
    std::vector<double> state_;
    solver::integration_method method_ = solver::integration_method::trapezoidal;
    bool built_ = false;
    bool first_activation_ = true;
    bool restamp_requested_ = false;
    bool stamps_changed_ = false;  // since the last step: values or pattern
    double solve_time_ = 0.0;
};

}  // namespace sca::tdf

#endif  // SCA_TDF_DAE_MODULE_HPP
