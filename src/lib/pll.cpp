#include "lib/pll.hpp"

#include <cmath>
#include <numbers>

#include "util/report.hpp"

namespace sca::lib {

namespace {

// PI controller gains: a well-damped lock for loop_bw ~ f0/100.
constexpr double k_kp = 4.0;
constexpr double k_ki = 4000.0;

}  // namespace

pll::pll(const de::module_name& nm, double f0, double kv, double loop_bw)
    : tdf::module(nm), ref("ref"), out("out"), control("control"), f0_(f0), kv_(kv),
      loop_bw_(loop_bw) {
    util::require(f0 > 0.0 && kv != 0.0 && loop_bw > 0.0, name(),
                  "f0 and loop bandwidth must be positive, kv nonzero");
    f_now_ = f0;
}

void pll::initialize() {
    h_ = timestep().to_seconds();
    util::require(h_ > 0.0, name(), "PLL needs a resolved timestep");
    util::require(f0_ * h_ < 0.4, name(),
                  "TDF rate too low for the VCO frequency (need fs > 2.5 f0)");
    alpha_ = 1.0 - std::exp(-2.0 * std::numbers::pi * loop_bw_ * h_);
}

void pll::processing() {
    // Multiplying phase detector against the quadrature VCO output: for
    // small phase error e, ref*cos(phase) averages to (A/2) sin(e).
    const double pd = ref.read() * std::cos(phase_);
    // One-pole loop filter strips the 2f product.
    lf_state_ += alpha_ * (pd - lf_state_);
    // PI control drives the VCO.
    integ_ += k_ki * lf_state_ * h_;
    const double vctrl = k_kp * lf_state_ + integ_;
    f_now_ = f0_ + kv_ * vctrl;
    phase_ += 2.0 * std::numbers::pi * f_now_ * h_;
    if (phase_ > 2.0 * std::numbers::pi * 1e6) {
        phase_ = std::fmod(phase_, 2.0 * std::numbers::pi);
    }
    out.write(std::sin(phase_));
    control.write(vctrl);
}

}  // namespace sca::lib
