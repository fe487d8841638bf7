#include "lsf/state_space.hpp"

#include "util/report.hpp"

namespace sca::lsf {

state_space::state_space(const std::string& name, system& sys, std::vector<signal> inputs,
                         std::vector<signal> outputs, num::dense_matrix_d a,
                         num::dense_matrix_d b, num::dense_matrix_d c,
                         num::dense_matrix_d d)
    : block(name, sys), inputs_(std::move(inputs)), outputs_(std::move(outputs)),
      a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), d_(std::move(d)) {
    const std::size_t n = a_.rows();
    util::require(a_.cols() == n, this->name(), "A must be square");
    util::require(b_.rows() == n && b_.cols() == inputs_.size(), this->name(),
                  "B must be n x inputs");
    util::require(c_.rows() == outputs_.size() && c_.cols() == n, this->name(),
                  "C must be outputs x n");
    util::require(d_.rows() == outputs_.size() && d_.cols() == inputs_.size(), this->name(),
                  "D must be outputs x inputs");
    x0_.assign(n, 0.0);
}

void state_space::set_initial_state(std::vector<double> x0) {
    util::require(x0.size() == order(), name(), "initial state dimension mismatch");
    x0_ = std::move(x0);
}

void state_space::stamp(system& sys) {
    const std::size_t n = order();
    auto& es = sys.sys();

    std::vector<std::size_t> xr(n);
    for (std::size_t i = 0; i < n; ++i) {
        xr[i] = sys.add_state(*this, "x" + std::to_string(i));
        sys.set_initial(xr[i], x0_[i]);
    }

    // State rows: dx_i/dt - sum_j A_ij x_j - sum_k B_ik u_k = 0.
    for (std::size_t i = 0; i < n; ++i) {
        es.add_b(xr[i], xr[i], 1.0);
        for (std::size_t j = 0; j < n; ++j) {
            if (a_(i, j) != 0.0) es.add_a(xr[i], xr[j], -a_(i, j));
        }
        for (std::size_t k = 0; k < inputs_.size(); ++k) {
            if (b_(i, k) != 0.0) es.add_a(xr[i], inputs_[k].index(), -b_(i, k));
        }
    }

    // Output rows: y_o - sum_j C_oj x_j - sum_k D_ok u_k = 0.
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const std::size_t r = sys.claim_driver(outputs_[o], *this);
        es.add_a(r, outputs_[o].index(), 1.0);
        for (std::size_t j = 0; j < n; ++j) {
            if (c_(o, j) != 0.0) es.add_a(r, xr[j], -c_(o, j));
        }
        for (std::size_t k = 0; k < inputs_.size(); ++k) {
            if (d_(o, k) != 0.0) es.add_a(r, inputs_[k].index(), -d_(o, k));
        }
    }
}

}  // namespace sca::lsf
