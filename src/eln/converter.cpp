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

void tdf_vsource::read_tdf_inputs(network& net) {
    net.set_input(slot_, scale_ * inp.read());
}

// --------------------------------------------------------------- tdf_isource

tdf_isource::tdf_isource(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), inp("inp") {
    inp.set_owner(net);
}

void tdf_isource::stamp(network& net) {
    slot_p_ = net.add_input(network::row_of(p.get()));
    slot_n_ = net.add_input(network::row_of(n.get()));
}

void tdf_isource::read_tdf_inputs(network& net) {
    const double i = scale_ * inp.read();
    net.set_input(slot_p_, -i);
    net.set_input(slot_n_, i);
}

// ----------------------------------------------------------------- tdf_vsink

tdf_vsink::tdf_vsink(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), outp("outp") {
    outp.set_owner(net);
}

void tdf_vsink::stamp(network&) {}

void tdf_vsink::write_tdf_outputs(network& net) {
    outp.write(net.voltage(p.get(), n.get()));
}

// ----------------------------------------------------------------- tdf_isink

tdf_isink::tdf_isink(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), outp("outp") {
    outp.set_owner(net);
}

void tdf_isink::stamp(network& net) {
    net.stamp_branch(net.branch_row(*this), p.get(), n.get());
}

void tdf_isink::write_tdf_outputs(network& net) { outp.write(net.current(*this)); }

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

void de_vsource::read_tdf_inputs(network& net) { net.set_input(slot_, inp.read()); }

// ---------------------------------------------------------------- de_isource

de_isource::de_isource(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), inp("inp") {
    net.declare_de_coupled(tdf::de_coupling::reads);
}

void de_isource::stamp(network& net) {
    slot_p_ = net.add_input(network::row_of(p.get()));
    slot_n_ = net.add_input(network::row_of(n.get()));
}

void de_isource::read_tdf_inputs(network& net) {
    const double i = inp.read();
    net.set_input(slot_p_, -i);
    net.set_input(slot_n_, i);
}

// ------------------------------------------------------------------ de_vsink

de_vsink::de_vsink(const std::string& name, network& net, pin p_pin, pin n_pin)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), outp("outp") {
    net.declare_de_coupled(tdf::de_coupling::writes);
}

void de_vsink::write_tdf_outputs(network& net) {
    outp.write(net.voltage(p.get(), n.get()));
}

// ---------------------------------------------------------------- de_rswitch

de_rswitch::de_rswitch(const std::string& name, network& net, pin p_pin, pin n_pin,
                       double r_on, double r_off)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin), ctrl("ctrl"),
      r_on_(r_on), r_off_(r_off) {
    net.declare_de_coupled(tdf::de_coupling::reads);
    util::require(r_on > 0.0 && r_off > r_on, this->name(),
                  "switch requires 0 < r_on < r_off");
}

void de_rswitch::stamp(network& net) {
    slot_ = net.add_stamp_slot(1.0 / (closed_ ? r_on_ : r_off_));
    net.stamp_conductance_slot(slot_, p.get(), n.get());
}

stamp_change de_rswitch::sample_inputs() {
    const bool v = ctrl.read();
    if (v != closed_) {
        closed_ = v;
        // No slot yet (registered after the network built): escalate to a
        // full restamp, which allocates the slot and stamps the new state.
        if (slot_ == solver::no_stamp_handle) return stamp_change::topology;
        net_->update_stamp_value(slot_, 1.0 / (closed_ ? r_on_ : r_off_));
        return stamp_change::values;
    }
    return stamp_change::none;
}

}  // namespace sca::eln
