#include "eln/converter.hpp"

namespace sca::eln {

// --------------------------------------------------------------- tdf_vsource

tdf_vsource::tdf_vsource(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), inp("inp") {
    inp.set_owner(net);
}

void tdf_vsource::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    net.stamp_branch(k, p.get(), n.get());
    slot_ = net.add_input(k);
}

void tdf_vsource::read_inputs() { net().set_input(slot_, scale_ * inp.read()); }

// --------------------------------------------------------------- tdf_isource

tdf_isource::tdf_isource(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), inp("inp") {
    inp.set_owner(net);
}

void tdf_isource::stamp(network& net) {
    slot_p_ = net.add_input(network::row_of(p.get()));
    slot_n_ = net.add_input(network::row_of(n.get()));
}

void tdf_isource::read_inputs() {
    const double i = scale_ * inp.read();
    net().set_input(slot_p_, -i);
    net().set_input(slot_n_, i);
}

// ----------------------------------------------------------------- tdf_vsink

tdf_vsink::tdf_vsink(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), outp("outp") {
    outp.set_owner(net);
}

void tdf_vsink::stamp(network&) {}

void tdf_vsink::write_outputs() { outp.write(net().voltage(p.get(), n.get())); }

// ----------------------------------------------------------------- tdf_isink

tdf_isink::tdf_isink(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), outp("outp") {
    outp.set_owner(net);
}

void tdf_isink::stamp(network& net) {
    net.stamp_branch(net.branch_row(*this), p.get(), n.get());
}

void tdf_isink::write_outputs() { outp.write(net().current(*this)); }

// ---------------------------------------------------------------- de_vsource

de_vsource::de_vsource(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), inp("inp") {
    net.declare_de_coupled(tdf::de_coupling::reads);
}

void de_vsource::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    net.stamp_branch(k, p.get(), n.get());
    slot_ = net.add_input(k);
}

void de_vsource::read_inputs() { net().set_input(slot_, inp.read()); }

// ---------------------------------------------------------------- de_isource

de_isource::de_isource(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), inp("inp") {
    net.declare_de_coupled(tdf::de_coupling::reads);
}

void de_isource::stamp(network& net) {
    slot_p_ = net.add_input(network::row_of(p.get()));
    slot_n_ = net.add_input(network::row_of(n.get()));
}

void de_isource::read_inputs() {
    const double i = inp.read();
    net().set_input(slot_p_, -i);
    net().set_input(slot_n_, i);
}

// ------------------------------------------------------------------ de_vsink

de_vsink::de_vsink(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), outp("outp") {
    net.declare_de_coupled(tdf::de_coupling::writes);
}

void de_vsink::write_outputs() { outp.write(net().voltage(p.get(), n.get())); }

// ---------------------------------------------------------------- de_rswitch

de_rswitch::de_rswitch(const std::string& name, network& net, pin p_pin, pin n_pin,
                       double r_on, double r_off)
    : rswitch(name, net, p_pin, n_pin, r_on, r_off), ctrl("ctrl") {
    net.declare_de_coupled(tdf::de_coupling::reads);
}

}  // namespace sca::eln
