#include "eln/multidomain.hpp"

#include "util/report.hpp"

namespace sca::eln {

namespace {
void stamp_integral_branch(network& net, component& c, const node& a, const node& b,
                           double inverse_stiffness) {
    // Spring/torsion-spring: through quantity F with dF/dt = k*(v_a - v_b),
    // the exact analog of an inductor with L = 1/k.
    const std::size_t k = net.branch_row(c, "f");
    net.stamp_branch(k, a, b);
    net.add_b(k, k, -inverse_stiffness);
}
}  // namespace

// ---------------------------------------------------------------------- mass

mass::mass(const std::string& name, network& net, pin n, double kilograms)
    : component(name, net), p("p", *this, nature::mechanical_translational, n),
      m_(kilograms) {
    util::require(kilograms > 0.0, this->name(), "mass must be positive");
}

void mass::stamp(network& net) {
    net.stamp_capacitance(p.get(), net.ground(nature::mechanical_translational), m_);
}

// -------------------------------------------------------------------- damper

damper::damper(const std::string& name, network& net, pin a_pin, pin b_pin,
               double n_s_per_m)
    : component(name, net), a("a", *this, nature::mechanical_translational, a_pin),
      b("b", *this, nature::mechanical_translational, b_pin), d_(n_s_per_m) {
    util::require(n_s_per_m > 0.0, this->name(), "damping must be positive");
}

void damper::stamp(network& net) { net.stamp_conductance(a.get(), b.get(), d_); }

// -------------------------------------------------------------------- spring

spring::spring(const std::string& name, network& net, pin a_pin, pin b_pin,
               double n_per_m)
    : component(name, net), a("a", *this, nature::mechanical_translational, a_pin),
      b("b", *this, nature::mechanical_translational, b_pin), k_(n_per_m) {
    util::require(n_per_m > 0.0, this->name(), "stiffness must be positive");
}

void spring::stamp(network& net) {
    stamp_integral_branch(net, *this, a.get(), b.get(), 1.0 / k_);
}

// -------------------------------------------------------------- force_source

force_source::force_source(const std::string& name, network& net, pin p_pin,
                           pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::mechanical_translational, p_pin),
      n("n", *this, nature::mechanical_translational, n_pin), wave_(std::move(w)) {}

void force_source::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
}

// ------------------------------------------------------------ position_probe

position_probe::position_probe(const std::string& name, network& net, pin n)
    : component(name, net), p("p", *this, nature::mechanical_translational, n),
      outp("outp") {
    outp.set_owner(net);
}

void position_probe::stamp(network& net) {
    row_ = net.branch_row(*this, "x");
    // dx/dt - v = 0
    net.add_b(row_, row_, 1.0);
    net.add_a(row_, network::row_of(p.get()), -1.0);
}

void position_probe::write_outputs() { outp.write(net().state()[row_]); }

// ------------------------------------------------------------------- inertia

inertia::inertia(const std::string& name, network& net, pin n, double kg_m2)
    : component(name, net), p("p", *this, nature::mechanical_rotational, n), j_(kg_m2) {
    util::require(kg_m2 > 0.0, this->name(), "inertia must be positive");
}

void inertia::stamp(network& net) {
    net.stamp_capacitance(p.get(), net.ground(nature::mechanical_rotational), j_);
}

// --------------------------------------------------------- rotational_damper

rotational_damper::rotational_damper(const std::string& name, network& net, pin a_pin,
                                     pin b_pin, double n_m_s_per_rad)
    : component(name, net), a("a", *this, nature::mechanical_rotational, a_pin),
      b("b", *this, nature::mechanical_rotational, b_pin), d_(n_m_s_per_rad) {
    util::require(n_m_s_per_rad > 0.0, this->name(), "damping must be positive");
}

void rotational_damper::stamp(network& net) {
    net.stamp_conductance(a.get(), b.get(), d_);
}

// ------------------------------------------------------------ torsion_spring

torsion_spring::torsion_spring(const std::string& name, network& net, pin a_pin,
                               pin b_pin, double n_m_per_rad)
    : component(name, net), a("a", *this, nature::mechanical_rotational, a_pin),
      b("b", *this, nature::mechanical_rotational, b_pin), k_(n_m_per_rad) {
    util::require(n_m_per_rad > 0.0, this->name(), "stiffness must be positive");
}

void torsion_spring::stamp(network& net) {
    stamp_integral_branch(net, *this, a.get(), b.get(), 1.0 / k_);
}

// ------------------------------------------------------------- torque_source

torque_source::torque_source(const std::string& name, network& net, pin p_pin,
                             pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::mechanical_rotational, p_pin),
      n("n", *this, nature::mechanical_rotational, n_pin), wave_(std::move(w)) {}

void torque_source::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
}

// ------------------------------------------------------- thermal_capacitance

thermal_capacitance::thermal_capacitance(const std::string& name, network& net, pin n,
                                         double j_per_k)
    : component(name, net), p("p", *this, nature::thermal, n), c_(j_per_k) {
    util::require(j_per_k > 0.0, this->name(), "heat capacity must be positive");
}

void thermal_capacitance::stamp(network& net) {
    net.stamp_capacitance(p.get(), net.ground(nature::thermal), c_);
}

// -------------------------------------------------------- thermal_resistance

thermal_resistance::thermal_resistance(const std::string& name, network& net,
                                       pin a_pin, pin b_pin, double k_per_w)
    : component(name, net), a("a", *this, nature::thermal, a_pin),
      b("b", *this, nature::thermal, b_pin), r_(k_per_w) {
    util::require(k_per_w > 0.0, this->name(), "thermal resistance must be positive");
}

void thermal_resistance::stamp(network& net) {
    net.stamp_conductance(a.get(), b.get(), 1.0 / r_);
}

// --------------------------------------------------------------- heat_source

heat_source::heat_source(const std::string& name, network& net, pin p_pin,
                         pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::thermal, p_pin),
      n("n", *this, nature::thermal, n_pin), wave_(std::move(w)) {}

void heat_source::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
}

// ------------------------------------------------------------------ dc_motor

dc_motor::dc_motor(const std::string& name, network& net, pin elec_p, pin elec_n,
                   pin shaft_pin, double resistance, double inductance,
                   double k_torque)
    : component(name, net), p("p", *this, nature::electrical, elec_p),
      n("n", *this, nature::electrical, elec_n),
      shaft("shaft", *this, nature::mechanical_rotational, shaft_pin), r_(resistance),
      l_(inductance), k_(k_torque) {
    util::require(resistance > 0.0 && inductance > 0.0 && k_torque > 0.0, this->name(),
                  "motor parameters must be positive");
}

void dc_motor::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);  // armature current
    const std::size_t rw = network::row_of(shaft.get());
    // Electrical KCL and the armature branch: v_p - v_n - R i - L di/dt - K w = 0.
    net.stamp_branch(k, p.get(), n.get());
    net.add_a(k, k, -r_);
    net.add_b(k, k, -l_);
    net.add_a(k, rw, -k_);
    // Electromagnetic torque K*i injected into the shaft node.
    net.add_a(rw, k, -k_);
}

}  // namespace sca::eln
