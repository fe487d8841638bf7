#include "eln/sources.hpp"

#include <cmath>
#include <numbers>

#include "util/report.hpp"

namespace sca::eln {

void stamp_waveform_flow(network& net, const node& p, const node& n, const waveform& w) {
    const std::size_t rp = network::row_of(p);
    const std::size_t rn = network::row_of(n);
    if (w.is_dc()) {
        net.add_rhs_constant(rp, -w.dc_value());
        net.add_rhs_constant(rn, w.dc_value());
    } else {
        net.add_rhs_source(rp, [w](double t) { return -w.at(t); });
        net.add_rhs_source(rn, [w](double t) { return w.at(t); });
    }
}

// ------------------------------------------------------------------- vsource

vsource::vsource(const std::string& name, network& net, pin p_pin, pin n_pin,
                 waveform w)
    : component(name, net), p("p", *this, nature::electrical, p_pin),
      n("n", *this, nature::electrical, n_pin), wave_(std::move(w)) {}

void vsource::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    net.stamp_branch(k, p.get(), n.get());
    if (wave_.is_dc()) {
        net.add_rhs_constant(k, wave_.dc_value());
    } else {
        const waveform w = wave_;
        net.add_rhs_source(k, [w](double t) { return w.at(t); });
    }
    if (ac_mag_ != 0.0) {
        const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
        net.add_ac_source(k, std::polar(ac_mag_, phase));
    }
    if (noise_psd_) {
        net.equations().add_noise_source({{k, 1.0}}, noise_psd_, name());
    }
}

void vsource::set_ac(double magnitude, double phase_deg) {
    ac_mag_ = magnitude;
    ac_phase_deg_ = phase_deg;
}

void vsource::set_noise_psd(std::function<double(double)> psd) {
    noise_psd_ = std::move(psd);
}

// ------------------------------------------------------------------- isource

isource::isource(const std::string& name, network& net, pin p_pin, pin n_pin,
                 waveform w)
    : component(name, net), p("p", *this, nature::electrical, p_pin),
      n("n", *this, nature::electrical, n_pin), wave_(std::move(w)) {}

void isource::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
    if (ac_mag_ != 0.0) {
        const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
        net.add_ac_source(network::row_of(p.get()), -std::polar(ac_mag_, phase));
        net.add_ac_source(network::row_of(n.get()), std::polar(ac_mag_, phase));
    }
    if (noise_psd_) net.add_noise_between(p.get(), n.get(), noise_psd_, name());
}

void isource::set_ac(double magnitude, double phase_deg) {
    ac_mag_ = magnitude;
    ac_phase_deg_ = phase_deg;
}

void isource::set_noise_psd(std::function<double(double)> psd) {
    noise_psd_ = std::move(psd);
}

}  // namespace sca::eln
