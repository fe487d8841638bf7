// State-space block (paper phase 1: "state-space equations"):
//
//     dx/dt = A x + B u,     y = C x + D u
//
// with dense matrices and arbitrary input/output signal vectors (MIMO).
#ifndef SCA_LSF_STATE_SPACE_HPP
#define SCA_LSF_STATE_SPACE_HPP

#include <vector>

#include "numeric/dense.hpp"
#include "lsf/node.hpp"

namespace sca::lsf {

class state_space : public block {
public:
    state_space(const std::string& name, system& sys, std::vector<signal> inputs,
                std::vector<signal> outputs, num::dense_matrix_d a, num::dense_matrix_d b,
                num::dense_matrix_d c, num::dense_matrix_d d);

    void stamp(system& sys) override;

    /// Initial state vector (default 0).
    void set_initial_state(std::vector<double> x0);

    [[nodiscard]] std::size_t order() const noexcept { return a_.rows(); }

private:
    std::vector<signal> inputs_;
    std::vector<signal> outputs_;
    num::dense_matrix_d a_, b_, c_, d_;
    std::vector<double> x0_;
};

}  // namespace sca::lsf

#endif  // SCA_LSF_STATE_SPACE_HPP
