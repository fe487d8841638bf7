#include "lsf/node.hpp"

#include "numeric/sparse.hpp"
#include "util/report.hpp"

namespace sca::lsf {

block::block(std::string name, system& sys) : tdf::dae_element(std::move(name), sys) {}

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

void system::set_initial(std::size_t row, double value) {
    if (initial_.size() <= row) initial_.resize(row + 1, 0.0);
    initial_[row] = value;
}

void system::build_equations() {
    drivers_.clear();
    initial_.clear();
    for (tdf::dae_element* e : elements()) static_cast<block*>(e)->stamp(*this);
    // Every signal must have exactly one driver, or the matrix is singular.
    for (std::size_t i = 0; i < signal_names_.size(); ++i) {
        if (drivers_.count(i) != 1) {
            util::report_fatal(name(), "lsf signal '" + signal_names_[i] + "' has no driver");
        }
    }
}

std::vector<double> system::initial_state() {
    const solver::equation_system& es = raw_system();
    std::vector<double> q = es.rhs(solve_time());
    initial_.resize(es.size(), 0.0);
    num::sparse_matrix_d init(es.size());
    for (std::size_t r = 0; r < es.size(); ++r) {
        if (!es.b().row_indices(r).empty()) {
            init.add(r, r, 1.0);
            q[r] = initial_[r];
            continue;
        }
        const auto& cols = es.a().row_indices(r);
        const auto& vals = es.a().row_values(r);
        for (std::size_t k = 0; k < cols.size(); ++k) init.add(r, cols[k], vals[k]);
    }
    num::sparse_lu_d lu(init);
    return lu.solve(q);
}

}  // namespace sca::lsf
