// Embedding of continuous-time equation clusters into the dataflow world
// (paper §3: "Continuous behaviour encapsulated in static dataflow modules").
//
// A dae_module owns one equation_system and advances it by one TDF timestep
// per activation.  Linear systems use the fixed-step linear DAE solver
// (factor once, solve per step); systems with nonlinear elements
// transparently switch to the variable-step Newton solver, which takes as
// many internal steps as the error control demands and resynchronizes at
// every TDF sample point (paper phase 2).
#ifndef SCA_TDF_DAE_MODULE_HPP
#define SCA_TDF_DAE_MODULE_HPP

#include <memory>

#include "solver/dc.hpp"
#include "solver/equation_system.hpp"
#include "solver/linear_dae.hpp"
#include "solver/nonlinear_dae.hpp"
#include "tdf/module.hpp"

namespace sca::tdf {

class dae_module : public module {
public:
    /// The shared equation system (the paper's "equation interface"): AC and
    /// noise analyses operate on it directly. Valid after elaboration; call
    /// build_now() to force assembly before the first activation.
    [[nodiscard]] solver::equation_system& equations();

    /// Current continuous state vector (valid after the first activation).
    [[nodiscard]] const std::vector<double>& state() const { return state_; }

    /// Integration method for the linear fixed-step path.
    void set_integration_method(solver::integration_method m) { method_ = m; }

    /// Assemble equations if not done yet (for AC/noise before a transient).
    void build_now();

    /// Per-step solver statistics: numeric factorization passes, and full
    /// symbolic analyses (pivot order + fill pattern). A values-only restamp
    /// advances only the former.
    [[nodiscard]] std::uint64_t factorizations() const noexcept;
    [[nodiscard]] std::uint64_t symbolic_factorizations() const noexcept;

    /// A dae_module tolerates dynamic-TDF retiming natively: a cluster
    /// timestep change only moves h, which the linear solver absorbs as a
    /// values-only numeric refactor of the iteration matrix (c_a A + B/h)
    /// and the nonlinear solver by resynchronizing its internal variable
    /// step at the new sample points.
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }

    void processing() final;

    // --- checkpoint/restore (core/snapshot) ---------------------------------
    /// Serialize assembly flags, the continuous state, the (possibly
    /// fixed-up) nonlinear options, the equation system's values, and the
    /// active solver.  Restore re-runs build_equations() on the rebuilt
    /// components, overlays the equation values (refusing on a sparsity-
    /// pattern mismatch), then recreates and restores the solver so its
    /// frozen pivot order replays bit-identically.
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override;
    void restore_state(util::byte_reader& r) override;

protected:
    explicit dae_module(const de::module_name& nm) : module(nm) {}

    /// Direct system access without triggering assembly; views use this to
    /// register unknowns during model construction and to stamp inside
    /// build_equations().
    [[nodiscard]] solver::equation_system& raw_system() noexcept { return sys_; }

    // --- customization points for the concrete views (ELN, LSF) -------------
    /// Stamp all components into `equations()`.
    virtual void build_equations() = 0;
    /// Move TDF/DE port samples into the equation system's input slots.
    virtual void read_inputs() {}
    /// Move solution values to TDF/DE output ports.
    virtual void write_outputs() {}
    /// Initial state at t=0; default is the DC operating point.
    virtual std::vector<double> initial_state();

    /// Components call this when their stamp *pattern* may have changed
    /// (topology edits); the system is rebuilt from scratch and the solver
    /// re-runs symbolic analysis before the next step.
    void request_restamp() { restamp_requested_ = true; }

    /// Components call this after writing new values into existing stamp
    /// slots (switch toggle, parameter change): no rebuild, the solver does
    /// a numeric-only refactor.
    void request_value_update() { value_update_requested_ = true; }

    /// Continuous time of the sample being produced (seconds).
    [[nodiscard]] double solve_time() const noexcept { return solve_time_; }

private:
    void rebuild();

    solver::equation_system sys_;
    std::unique_ptr<solver::linear_dae_solver> linear_;
    std::unique_ptr<solver::nonlinear_dae_solver> nonlinear_;
    std::vector<double> state_;
    solver::integration_method method_ = solver::integration_method::trapezoidal;
    solver::nonlinear_options nl_options_;
    bool built_ = false;
    bool first_activation_ = true;
    bool restamp_requested_ = false;
    bool value_update_requested_ = false;
    double solve_time_ = 0.0;
};

}  // namespace sca::tdf

#endif  // SCA_TDF_DAE_MODULE_HPP
