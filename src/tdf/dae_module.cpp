#include "tdf/dae_module.hpp"

#include <algorithm>

#include "numeric/sparse.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"
#include "util/trace_export.hpp"

namespace sca::tdf {

// ------------------------------------------------------------- elements --

dae_element::dae_element(std::string name, dae_module& view)
    : de::object(std::move(name)), view_(&view) {
    view.attach(*this);
}

dae_element::~dae_element() {
    if (view_ != nullptr) view_->detach(*this);
}

dae_module::~dae_module() {
    for (dae_element* e : elements_) e->view_ = nullptr;
}

void dae_module::attach(dae_element& e) {
    elements_.push_back(&e);
    hooks_pruned_ = false;  // the next step visits the newcomer's hooks
    if (built_) request_restamp();
}

void dae_module::detach(dae_element& e) {
    for (auto* list : {&elements_, &read_hooks_, &write_hooks_}) {
        list->erase(std::remove(list->begin(), list->end(), &e), list->end());
    }
    if (built_) request_restamp();
}

void dae_module::read_elements() {
    for (dae_element* e : hooks_pruned_ ? read_hooks_ : elements_) e->read_inputs();
}

void dae_module::write_elements() {
    for (dae_element* e : hooks_pruned_ ? write_hooks_ : elements_) e->write_outputs();
    if (hooks_pruned_) return;
    // Every element has run each hook once: keep those that did not fall
    // through to a default.
    read_hooks_.clear();
    write_hooks_.clear();
    for (dae_element* e : elements_) {
        if ((e->default_hooks_ & dae_element::default_read) == 0) read_hooks_.push_back(e);
        if ((e->default_hooks_ & dae_element::default_write) == 0) write_hooks_.push_back(e);
    }
    hooks_pruned_ = true;
}

// ------------------------------------------------------------- assembly --

solver::equation_system& dae_module::equations() {
    build_now();
    if (restamp_requested_) rebuild();
    return sys_;
}

void dae_module::build_now() {
    if (built_) return;
    built_ = true;  // set first: build_equations may query equations()
    restamp_requested_ = false;  // the first build is the restamp
    build_equations();
    sys_.finalize_stamps();
}

void dae_module::update_stamp_value(solver::stamp_handle h, double v) {
    sys_.set_stamp(h, v);
    stamps_changed_ = true;
}

std::vector<double> dae_module::initial_state() {
    return solver::dc_solve(sys_, solve_time_);
}

std::uint64_t dae_module::factorizations() const noexcept {
    if (linear_) return linear_->factor_count();
    if (nonlinear_) return nonlinear_->factorizations();
    return 0;
}

std::uint64_t dae_module::symbolic_factorizations() const noexcept {
    if (linear_) return linear_->symbolic_factor_count();
    if (nonlinear_) return nonlinear_->symbolic_factorizations();
    return 0;
}

void dae_module::rebuild() {
    SCA_TRACE_SPAN_T(&context().tracer(), "dae.symbolic_rebuild", "solver", solve_time_);
    restamp_requested_ = false;  // first: a stamp may query equations()
    sys_.clear_stamps();
    build_equations();
    sys_.finalize_stamps();
    stamps_changed_ = true;
}

void dae_module::start_solver(double h, double t0) {
    linear_.reset();
    nonlinear_.reset();
    if (sys_.is_linear()) {
        linear_ = std::make_unique<solver::linear_dae_solver>(sys_, method_, h);
        linear_->set_initial_state(state_, t0);
    } else {
        // The TDF timestep bounds the Newton solver's step, so it never
        // overshoots a synchronization point; it starts at most one TDF
        // step long and refines from there.
        solver::nonlinear_options opt;
        opt.h_max = std::min(opt.h_max, h);
        opt.h_init = std::min(opt.h_init, opt.h_max);
        nonlinear_ = std::make_unique<solver::nonlinear_dae_solver>(sys_, opt);
        nonlinear_->set_initial_state(state_, t0);
    }
}

void dae_module::processing() try {
    const double h = timestep().to_seconds();
    util::require(h > 0.0, name(), "DAE module needs a resolved timestep");
    const double t_prev = solve_time_;
    solve_time_ = tdf_time().to_seconds();

    if (!built_) build_now();
    read_elements();

    if (first_activation_) {
        SCA_TRACE_SPAN_T(&context().tracer(), "dae.init", "solver", solve_time_);
        first_activation_ = false;
        // Elements that sampled their controls in read_elements() above have
        // already pushed slot values into the system; a pattern-level change
        // still needs the rebuild before the initial state is computed.
        if (restamp_requested_) rebuild();
        stamps_changed_ = false;
        state_ = initial_state();
        start_solver(h, solve_time_);
        write_elements();
        return;
    }

    // A restamp re-runs symbolic analysis; a values-only update refactors
    // numerically against the cached pattern.  Either way the stamps moved
    // discontinuously, so the running solver restarts from the present
    // state: the linear one takes one BE step (the trapezoidal rule rings
    // forever on a stamp discontinuity), the Newton one accepts its next
    // step without reading the jump as truncation error.
    if (restamp_requested_) rebuild();
    // An element added since the solver started brought new unknowns or
    // nonlinear stamps: start the solver over from the present state, with
    // the new unknowns at 0.
    if (state().size() != sys_.size() || (linear_ && !sys_.is_linear())) {
        state_ = state();
        state_.resize(sys_.size(), 0.0);
        start_solver(h, t_prev);
    }
    if (stamps_changed_) {
        if (linear_) {
            linear_->restart();
        } else {
            nonlinear_->restart();
        }
        stamps_changed_ = false;
    }

    // Dynamic TDF: a rescheduled cluster hands this module a new timestep.
    // For the linear solver that is a values-only change of the iteration
    // matrix (c_a A + B/h): the numeric refactor replays against the cached
    // symbolic analysis, no symbolic pass.  The nonlinear solver controls
    // its own internal step and resynchronizes at advance_to(solve_time_).
    if (linear_ && linear_->timestep() != h) linear_->set_timestep(h);

    {
        SCA_TRACE_SPAN_T(&context().tracer(), "dae.step", "solver", solve_time_);
        if (linear_) {
            linear_->step();
        } else {
            nonlinear_->advance_to(solve_time_);
        }
    }
    write_elements();
} catch (const num::singular_matrix& e) {
    util::report_fatal(name(), "singular equation system: no pivot for unknown " +
                                   sys_.unknown_name(e.column()));
}

// --------------------------------------------------------------- snapshot --

void dae_module::save_state(util::byte_writer& w) const {
    w.boolean(built_);
    w.boolean(first_activation_);
    w.boolean(restamp_requested_);
    w.boolean(stamps_changed_);
    w.u8(static_cast<std::uint8_t>(method_));
    w.f64(solve_time_);
    w.f64_vec(state());
    if (built_) sys_.save_state(w);
    w.u8(linear_ ? 1 : (nonlinear_ ? 2 : 0));
    if (linear_) linear_->save_state(w);
    if (nonlinear_) nonlinear_->save_state(w);
}

void dae_module::restore_state(util::byte_reader& r) {
    const bool was_built = r.boolean();
    first_activation_ = r.boolean();
    const bool restamp_requested = r.boolean();
    stamps_changed_ = r.boolean();
    method_ = static_cast<solver::integration_method>(r.u8());
    solve_time_ = r.f64();
    state_ = r.f64_vec();
    if (was_built) {
        // Fresh assembly from the rebuilt components, then value overlay:
        // component hooks restoring their own state (a switch position) run
        // after this in the hierarchy walk, which is harmless — the overlay
        // already carries the values their state produced.
        build_now();
        sys_.restore_state(r);
    }
    restamp_requested_ = restamp_requested;  // after the build, which clears it
    const std::uint8_t solver_kind = r.u8();
    if (solver_kind == 1) {
        // Placeholder timestep: the solver's own restore reads the real one.
        linear_ = std::make_unique<solver::linear_dae_solver>(sys_, method_, 1.0);
        linear_->restore_state(r);
    } else if (solver_kind == 2) {
        // The solver's own restore reads the step bounds it was built with.
        nonlinear_ = std::make_unique<solver::nonlinear_dae_solver>(sys_);
        nonlinear_->restore_state(r);
    }
}

}  // namespace sca::tdf
