#include "lsf/primitives.hpp"

#include <cmath>
#include <complex>
#include <numbers>

namespace sca::lsf {

// -------------------------------------------------------------------- source

source::source(const std::string& name, system& sys, signal out, waveform w)
    : block(name, sys), out_(out), wave_(std::move(w)) {}

void source::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    if (wave_.is_dc()) {
        sys.sys().add_rhs_constant(r, wave_.dc_value());
    } else {
        const waveform w = wave_;
        sys.sys().add_rhs_source(r, [w](double t) { return w.at(t); });
    }
    if (ac_mag_ != 0.0) {
        const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
        sys.sys().add_ac_source(r, std::polar(ac_mag_, phase));
    }
}

// ---------------------------------------------------------------------- gain

gain::gain(const std::string& name, system& sys, signal in, signal out, double k)
    : block(name, sys), in_(in), out_(out), k_(k) {}

void gain::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    slot_ = sys.sys().add_stamp(k_);
    sys.sys().stamp_a(slot_, r, in_.index(), -1.0);
}

void gain::set_k(double k) {
    if (k != k_) {
        k_ = k;
        if (slot_ != solver::no_stamp_handle) view().update_stamp_value(slot_, k_);
    }
}

// ----------------------------------------------------------------------- add

add::add(const std::string& name, system& sys, signal in1, signal in2, signal out,
         double w1, double w2)
    : block(name, sys), in1_(in1), in2_(in2), out_(out), w1_(w1), w2_(w2) {}

void add::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    sys.sys().add_a(r, in1_.index(), -w1_);
    sys.sys().add_a(r, in2_.index(), -w2_);
}

// ----------------------------------------------------------------------- sub

sub::sub(const std::string& name, system& sys, signal in1, signal in2, signal out)
    : block(name, sys), in1_(in1), in2_(in2), out_(out) {}

void sub::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    sys.sys().add_a(r, in1_.index(), -1.0);
    sys.sys().add_a(r, in2_.index(), 1.0);
}

// --------------------------------------------------------------------- integ

integ::integ(const std::string& name, system& sys, signal in, signal out, double k,
             double y0)
    : block(name, sys), in_(in), out_(out), k_(k), y0_(y0) {}

void integ::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_b(r, out_.index(), 1.0);
    sys.sys().add_a(r, in_.index(), -k_);
    sys.set_initial(r, y0_);
}

// ----------------------------------------------------------------------- dot

dot::dot(const std::string& name, system& sys, signal in, signal out, double k)
    : block(name, sys), in_(in), out_(out), k_(k) {}

void dot::stamp(system& sys) {
    // A row with a B entry: out(0) = 0, the derivative having no history.
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    sys.sys().add_b(r, in_.index(), -k_);
}

// ------------------------------------------------------------------ from_tdf

from_tdf::from_tdf(const std::string& name, system& sys, signal out)
    : block(name, sys), inp("inp"), out_(out) {
    inp.set_owner(sys);
}

void from_tdf::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    slot_ = sys.sys().add_input(r);
}

void from_tdf::read_inputs() { out_.sys()->sys().set_input(slot_, inp.read()); }

// -------------------------------------------------------------------- to_tdf

to_tdf::to_tdf(const std::string& name, system& sys, signal in)
    : block(name, sys), outp("outp"), in_(in) {
    outp.set_owner(sys);
}

void to_tdf::write_outputs() { outp.write(in_.sys()->value(in_)); }

// ------------------------------------------------------------------- from_de

from_de::from_de(const std::string& name, system& sys, signal out)
    : block(name, sys), inp("inp"), out_(out) {
    sys.declare_de_coupled(tdf::de_coupling::reads);
}

void from_de::stamp(system& sys) {
    const std::size_t r = sys.claim_driver(out_, *this);
    sys.sys().add_a(r, out_.index(), 1.0);
    slot_ = sys.sys().add_input(r);
}

void from_de::read_inputs() { out_.sys()->sys().set_input(slot_, inp.read()); }

// --------------------------------------------------------------------- to_de

to_de::to_de(const std::string& name, system& sys, signal in)
    : block(name, sys), outp("outp"), in_(in) {
    sys.declare_de_coupled(tdf::de_coupling::writes);
}

void to_de::write_outputs() { outp.write(in_.sys()->value(in_)); }

}  // namespace sca::lsf
