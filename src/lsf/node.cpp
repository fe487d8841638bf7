#include "lsf/node.hpp"

#include "numeric/sparse.hpp"
#include "util/report.hpp"

namespace sca::lsf {

block::block(std::string name, system& sys) : de::object(std::move(name)), sys_(&sys) {
    sys.register_block(*this);
}

signal system::create_signal(const std::string& name) {
    const std::size_t index = raw_system().add_unknown(name);
    signal_names_.push_back(name);
    return signal(this, index);
}

double system::value(const signal& s) const {
    util::require(s.valid(), name(), "value of an invalid lsf signal");
    if (s.index() >= state().size()) return 0.0;  // before the first step
    return state()[s.index()];
}

std::size_t system::claim_driver(const signal& s, const block& driver) {
    util::require(s.valid(), name(), "block output is not connected to a signal");
    const auto [it, inserted] = drivers_.emplace(s.index(), &driver);
    if (!inserted && it->second != &driver) {
        util::report_fatal(name(), "lsf signal '" + signal_names_[s.index()] +
                                       "' has two drivers (" + it->second->name() + " and " +
                                       driver.name() + ")");
    }
    return s.index();
}

std::size_t system::add_state(const block& b, const std::string& suffix) {
    const auto key = std::make_pair(&b, suffix);
    auto it = states_.find(key);
    if (it != states_.end()) return it->second;
    const std::size_t row = raw_system().add_unknown(b.name() + "." + suffix);
    states_.emplace(key, row);
    return row;
}

void system::build_equations() {
    drivers_.clear();
    for (block* b : blocks_) b->stamp(*this);
    // Every signal must have exactly one driver, or the matrix is singular.
    for (std::size_t i = 0; i < signal_names_.size(); ++i) {
        if (drivers_.count(i) != 1) {
            util::report_fatal(name(), "lsf signal '" + signal_names_[i] + "' has no driver");
        }
    }
}

void system::read_inputs() {
    for (block* b : blocks_) b->read_tdf_inputs(*this);
}

void system::write_outputs() {
    for (block* b : blocks_) b->write_tdf_outputs(*this);
}

std::vector<double> system::initial_state() {
    // Consistent algebraic initialization: a fresh equation system with the
    // same unknowns where dynamic blocks pin their states.
    solver::equation_system init;
    for (std::size_t i = 0; i < raw_system().size(); ++i) {
        init.add_unknown(raw_system().unknown_name(i));
    }
    const double t0 = solve_time();
    for (block* b : blocks_) b->stamp_init(*this, init, t0);
    num::sparse_lu_d lu(init.a());
    return lu.solve(init.rhs(t0));
}

}  // namespace sca::lsf
