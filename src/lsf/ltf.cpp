#include "lsf/ltf.hpp"

#include <cmath>
#include <numbers>

#include "util/report.hpp"

namespace sca::lsf {

std::vector<double> poly_from_roots(const std::vector<std::complex<double>>& roots) {
    // Multiply out with complex arithmetic, then verify realness.
    std::vector<std::complex<double>> p{1.0};
    for (const auto& r : roots) {
        std::vector<std::complex<double>> q(p.size() + 1, 0.0);
        for (std::size_t i = 0; i < p.size(); ++i) {
            q[i] -= r * p[i];   // constant-term contribution
            q[i + 1] += p[i];   // s * p
        }
        p = std::move(q);
    }
    std::vector<double> out(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        util::require(std::abs(p[i].imag()) <= 1e-9 * (1.0 + std::abs(p[i].real())),
                      "poly_from_roots",
                      "roots are not closed under conjugation (complex coefficients)");
        out[i] = p[i].real();
    }
    return out;
}

std::complex<double> poly_eval(const std::vector<double>& coeffs, std::complex<double> s) {
    std::complex<double> acc = 0.0;
    for (std::size_t i = coeffs.size(); i-- > 0;) acc = acc * s + coeffs[i];
    return acc;
}

// -------------------------------------------------------------------- ltf_nd

ltf_nd::ltf_nd(const std::string& name, system& sys, signal in, signal out,
               std::vector<double> num, std::vector<double> den)
    : block(name, sys), in_(in), out_(out), num_(std::move(num)), den_(std::move(den)) {
    util::require(!den_.empty() && den_.size() >= 2, this->name(),
                  "denominator must have degree >= 1");
    util::require(den_.back() != 0.0, this->name(),
                  "leading denominator coefficient must be nonzero");
    util::require(!num_.empty(), this->name(), "numerator must not be empty");
    util::require(num_.size() <= den_.size(), this->name(),
                  "transfer function must be proper (num degree <= den degree)");
    x0_.assign(den_.size() - 1, 0.0);
}

void ltf_nd::set_initial_state(std::vector<double> x0) {
    util::require(x0.size() == order(), name(), "initial state dimension mismatch");
    x0_ = std::move(x0);
}

void ltf_nd::stamp(system& sys) {
    const std::size_t n = order();
    const double an = den_.back();

    // Direct feed-through for num degree == den degree.
    double d = 0.0;
    std::vector<double> b_red = num_;
    b_red.resize(den_.size(), 0.0);
    if (num_.size() == den_.size()) {
        d = num_.back() / an;
        for (std::size_t i = 0; i < den_.size(); ++i) b_red[i] -= d * den_[i];
    }

    // Internal states x1..xn (controllable canonical form):
    //   dx_i/dt = x_{i+1}                         (i < n)
    //   a_n dx_n/dt = -sum a_{i-1} x_i + u
    std::vector<std::size_t> xr(n);
    for (std::size_t i = 0; i < n; ++i) {
        xr[i] = sys.add_state(*this, "x" + std::to_string(i));
        sys.set_initial(xr[i], x0_[i]);
    }

    auto& es = sys.sys();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        es.add_b(xr[i], xr[i], 1.0);
        es.add_a(xr[i], xr[i + 1], -1.0);
    }
    es.add_b(xr[n - 1], xr[n - 1], an);
    for (std::size_t i = 0; i < n; ++i) es.add_a(xr[n - 1], xr[i], den_[i]);
    es.add_a(xr[n - 1], in_.index(), -1.0);

    // Output equation: y = sum b'_j x_{j+1} + d u.
    const std::size_t r = sys.claim_driver(out_, *this);
    es.add_a(r, out_.index(), 1.0);
    for (std::size_t j = 0; j < n; ++j) {
        if (b_red[j] != 0.0) es.add_a(r, xr[j], -b_red[j]);
    }
    if (d != 0.0) es.add_a(r, in_.index(), -d);
}

std::complex<double> ltf_nd::ideal_response(double f) const {
    const std::complex<double> s(0.0, 2.0 * std::numbers::pi * f);
    return poly_eval(num_, s) / poly_eval(den_, s);
}

// -------------------------------------------------------------------- ltf_zp

ltf_zp::ltf_zp(const std::string& name, system& sys, signal in, signal out,
               std::vector<std::complex<double>> zeros,
               std::vector<std::complex<double>> poles, double gain)
    : block(name, sys), zeros_(std::move(zeros)), poles_(std::move(poles)), gain_(gain) {
    util::require(poles_.size() >= 1, this->name(), "at least one pole required");
    util::require(zeros_.size() <= poles_.size(), this->name(),
                  "zero-pole function must be proper");
    std::vector<double> num = poly_from_roots(zeros_);
    for (double& c : num) c *= gain_;
    std::vector<double> den = poly_from_roots(poles_);
    realization_ = std::make_unique<ltf_nd>(name + "_nd", sys, in, out, std::move(num),
                                            std::move(den));
}

void ltf_zp::stamp(system&) {
    // The internal ltf_nd registered itself with the system and stamps as an
    // independent block; nothing further to contribute here.
}

std::complex<double> ltf_zp::ideal_response(double f) const {
    const std::complex<double> s(0.0, 2.0 * std::numbers::pi * f);
    std::complex<double> h = gain_;
    for (const auto& z : zeros_) h *= (s - z);
    for (const auto& p : poles_) h /= (s - p);
    return h;
}

}  // namespace sca::lsf
