// Laplace-domain transfer-function blocks (paper phase 1: "Predefined linear
// operators (Laplace transfer function, zero-pole transfer function, ...)").
//
// ltf_nd realizes H(s) = num(s)/den(s) in controllable canonical form with
// den-degree internal states; ltf_zp converts zeros/poles/gain into
// polynomial form first.  Both support proper (num degree == den degree)
// functions via a direct feed-through term.
#ifndef SCA_LSF_LTF_HPP
#define SCA_LSF_LTF_HPP

#include <complex>
#include <memory>
#include <vector>

#include "lsf/node.hpp"

namespace sca::lsf {

/// H(s) = (num[0] + num[1] s + ...) / (den[0] + den[1] s + ...).
class ltf_nd : public block {
public:
    ltf_nd(const std::string& name, system& sys, signal in, signal out,
           std::vector<double> num, std::vector<double> den);

    void stamp(system& sys) override;

    /// Initial internal state (controllable canonical coordinates; default 0).
    void set_initial_state(std::vector<double> x0);

    [[nodiscard]] std::size_t order() const noexcept { return den_.size() - 1; }

    /// Frequency response of the ideal transfer function (reference for
    /// tests and the frequency-domain benches).
    [[nodiscard]] std::complex<double> ideal_response(double f) const;

private:
    signal in_, out_;
    std::vector<double> num_;
    std::vector<double> den_;
    std::vector<double> x0_;
};

/// H(s) = gain * prod(s - zeros[i]) / prod(s - poles[j]).
/// Complex zeros/poles must appear in conjugate pairs.
class ltf_zp : public block {
public:
    ltf_zp(const std::string& name, system& sys, signal in, signal out,
           std::vector<std::complex<double>> zeros, std::vector<std::complex<double>> poles,
           double gain);

    void stamp(system& sys) override;

    [[nodiscard]] std::complex<double> ideal_response(double f) const;

private:
    std::unique_ptr<ltf_nd> realization_;
    std::vector<std::complex<double>> zeros_, poles_;
    double gain_;
};

/// Expand a monic product prod(s - roots[i]) into real polynomial
/// coefficients (ascending powers). Throws if roots are not closed under
/// conjugation.
[[nodiscard]] std::vector<double> poly_from_roots(
    const std::vector<std::complex<double>>& roots);

/// Evaluate a real polynomial (ascending coefficients) at s.
[[nodiscard]] std::complex<double> poly_eval(const std::vector<double>& coeffs,
                                             std::complex<double> s);

}  // namespace sca::lsf

#endif  // SCA_LSF_LTF_HPP
