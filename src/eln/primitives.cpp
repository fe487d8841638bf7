#include "eln/primitives.hpp"

#include "solver/noise.hpp"
#include "util/report.hpp"

namespace sca::eln {

// ------------------------------------------------------------------ resistor

resistor::resistor(const std::string& name, network& net, pin a, pin b, double ohms)
    : component(name, net), p("p", *this, nature::electrical, a),
      n("n", *this, nature::electrical, b), ohms_(ohms) {
    util::require(ohms > 0.0, this->name(), "resistance must be positive");
}

void resistor::stamp(network& net) {
    slot_ = net.add_stamp_slot(1.0 / ohms_);
    net.stamp_conductance_slot(slot_, p.get(), n.get());
    if (noisy_) {
        const double temp = net.temperature();
        // The PSD reads the live resistance so values-only updates keep
        // noise analyses consistent without a restamp.
        net.add_noise_between(p.get(), n.get(),
                              [this, temp](double) {
                                  return 4.0 * solver::k_boltzmann * temp / ohms_;
                              },
                              name());
    }
}

void resistor::set_value(double ohms) {
    util::require(ohms > 0.0, name(), "resistance must be positive");
    if (ohms != ohms_) {
        ohms_ = ohms;
        if (slot_ != solver::no_stamp_handle) {
            net().update_stamp_value(slot_, 1.0 / ohms_);
        }
    }
}

// ----------------------------------------------------------------- capacitor

capacitor::capacitor(const std::string& name, network& net, pin a, pin b, double farads)
    : component(name, net), p("p", *this, nature::electrical, a),
      n("n", *this, nature::electrical, b), farads_(farads) {
    util::require(farads > 0.0, this->name(), "capacitance must be positive");
}

void capacitor::stamp(network& net) {
    slot_ = net.add_stamp_slot(farads_);
    net.stamp_capacitance_slot(slot_, p.get(), n.get());
}

void capacitor::set_value(double farads) {
    util::require(farads > 0.0, name(), "capacitance must be positive");
    if (farads != farads_) {
        farads_ = farads;
        if (slot_ != solver::no_stamp_handle) net().update_stamp_value(slot_, farads_);
    }
}

// ------------------------------------------------------------------ inductor

inductor::inductor(const std::string& name, network& net, pin a, pin b, double henries)
    : component(name, net), p("p", *this, nature::electrical, a),
      n("n", *this, nature::electrical, b), henries_(henries) {
    util::require(henries > 0.0, this->name(), "inductance must be positive");
}

void inductor::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    // v_a - v_b - L di/dt = 0
    net.stamp_branch(k, p.get(), n.get());
    slot_ = net.add_stamp_slot(henries_);
    net.stamp_b_slot(slot_, k, k, -1.0);
}

void inductor::set_value(double henries) {
    util::require(henries > 0.0, name(), "inductance must be positive");
    if (henries != henries_) {
        henries_ = henries;
        if (slot_ != solver::no_stamp_handle) net().update_stamp_value(slot_, henries_);
    }
}

// ---------------------------------------------------------------------- vcvs

vcvs::vcvs(const std::string& name, network& net, pin cp_pin, pin cn_pin, pin p_pin,
           pin n_pin, double gain)
    : component(name, net), cp("cp", *this, cp_pin), cn("cn", *this, cn_pin),
      p("p", *this, p_pin), n("n", *this, n_pin), gain_(gain) {}

void vcvs::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    // v_p - v_n - gain * (v_cp - v_cn) = 0
    net.stamp_branch(k, p.get(), n.get());
    slot_ = net.add_stamp_slot(gain_);
    net.stamp_a_slot(slot_, k, network::row_of(cp.get()), -1.0);
    net.stamp_a_slot(slot_, k, network::row_of(cn.get()), 1.0);
}

void vcvs::set_gain(double gain) {
    if (gain != gain_) {
        gain_ = gain;
        if (slot_ != solver::no_stamp_handle) net().update_stamp_value(slot_, gain_);
    }
}

// ---------------------------------------------------------------------- vccs

vccs::vccs(const std::string& name, network& net, pin cp_pin, pin cn_pin, pin p_pin,
           pin n_pin, double gm)
    : component(name, net), cp("cp", *this, cp_pin), cn("cn", *this, cn_pin),
      p("p", *this, p_pin), n("n", *this, n_pin), gm_(gm) {}

void vccs::stamp(network& net) {
    // Current gm * v(cp,cn) flows from p through the source to n.
    slot_ = net.add_stamp_slot(gm_);
    net.stamp_a_slot(slot_, network::row_of(p.get()), network::row_of(cp.get()), 1.0);
    net.stamp_a_slot(slot_, network::row_of(p.get()), network::row_of(cn.get()), -1.0);
    net.stamp_a_slot(slot_, network::row_of(n.get()), network::row_of(cp.get()), -1.0);
    net.stamp_a_slot(slot_, network::row_of(n.get()), network::row_of(cn.get()), 1.0);
}

void vccs::set_gm(double gm) {
    if (gm != gm_) {
        gm_ = gm;
        if (slot_ != solver::no_stamp_handle) net().update_stamp_value(slot_, gm_);
    }
}

// ---------------------------------------------------------------------- ccvs

ccvs::ccvs(const std::string& name, network& net, const component& control, pin p_pin,
           pin n_pin, double rm)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin),
      control_(&control), rm_(rm) {}

void ccvs::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    const std::size_t j = net.branch_row(*control_);
    // v_p - v_n - rm * i_j = 0
    net.stamp_branch(k, p.get(), n.get());
    net.add_a(k, j, -rm_);
}

// ---------------------------------------------------------------------- cccs

cccs::cccs(const std::string& name, network& net, const component& control, pin p_pin,
           pin n_pin, double beta)
    : component(name, net), p("p", *this, p_pin), n("n", *this, n_pin),
      control_(&control), beta_(beta) {}

void cccs::stamp(network& net) {
    const std::size_t j = net.branch_row(*control_);
    // Current beta * i_j flows from p through the source to n.
    net.add_a(network::row_of(p.get()), j, beta_);
    net.add_a(network::row_of(n.get()), j, -beta_);
}

// --------------------------------------------------------- ideal transformer

ideal_transformer::ideal_transformer(const std::string& name, network& net, pin p1_pin,
                                     pin n1_pin, pin p2_pin, pin n2_pin, double ratio)
    : component(name, net), p1("p1", *this, p1_pin), n1("n1", *this, n1_pin),
      p2("p2", *this, p2_pin), n2("n2", *this, n2_pin), ratio_(ratio) {
    util::require(ratio != 0.0, this->name(), "transformer ratio must be nonzero");
}

void ideal_transformer::stamp(network& net) {
    // One branch unknown: primary current i1; secondary current = -ratio*i1.
    const std::size_t k = net.branch_row(*this);
    net.add_a(network::row_of(p1.get()), k, 1.0);
    net.add_a(network::row_of(n1.get()), k, -1.0);
    net.add_a(network::row_of(p2.get()), k, -ratio_);
    net.add_a(network::row_of(n2.get()), k, ratio_);
    // v1 = ratio * v2:  v_p1 - v_n1 - ratio (v_p2 - v_n2) = 0
    net.add_a(k, network::row_of(p1.get()), 1.0);
    net.add_a(k, network::row_of(n1.get()), -1.0);
    net.add_a(k, network::row_of(p2.get()), -ratio_);
    net.add_a(k, network::row_of(n2.get()), ratio_);
}

// ------------------------------------------------------------------- rswitch

rswitch::rswitch(const std::string& name, network& net, pin a, pin b, double r_on,
                 double r_off, bool closed)
    : component(name, net), p("p", *this, a), n("n", *this, b), r_on_(r_on),
      r_off_(r_off), closed_(closed) {
    util::require(r_on > 0.0 && r_off > r_on, this->name(),
                  "switch requires 0 < r_on < r_off");
}

void rswitch::stamp(network& net) {
    slot_ = net.add_stamp_slot(1.0 / (closed_ ? r_on_ : r_off_));
    net.stamp_conductance_slot(slot_, p.get(), n.get());
}

void rswitch::set_state(bool closed) {
    if (closed != closed_) {
        closed_ = closed;
        if (slot_ != solver::no_stamp_handle) {
            net().update_stamp_value(slot_, 1.0 / (closed_ ? r_on_ : r_off_));
        }
    }
}

// --------------------------------------------------------------- ideal_opamp

ideal_opamp::ideal_opamp(const std::string& name, network& net, pin inp_pin,
                         pin inn_pin, pin out_pin)
    : component(name, net), inp("inp", *this, nature::electrical, inp_pin),
      inn("inn", *this, nature::electrical, inn_pin),
      out("out", *this, nature::electrical, out_pin) {}

void ideal_opamp::stamp(network& net) {
    // Nullor stamp: one unknown (the output current), one constraint row
    // (virtual short between the inputs). The inputs draw no current.
    const std::size_t k = net.branch_row(*this, "iout");
    net.add_a(network::row_of(out.get()), k, 1.0);
    net.add_a(k, network::row_of(inp.get()), 1.0);
    net.add_a(k, network::row_of(inn.get()), -1.0);
}

// ------------------------------------------------------------------- gyrator

gyrator::gyrator(const std::string& name, network& net, pin p1_pin, pin n1_pin,
                 pin p2_pin, pin n2_pin, double g)
    : component(name, net), p1("p1", *this, p1_pin), n1("n1", *this, n1_pin),
      p2("p2", *this, p2_pin), n2("n2", *this, n2_pin), g_(g) {
    util::require(g != 0.0, this->name(), "gyration conductance must be nonzero");
}

void gyrator::stamp(network& net) {
    // i(port1) = g * v(port2): a VCCS from port 2 voltage into port 1 ...
    const std::size_t rp1 = network::row_of(p1.get());
    const std::size_t rn1 = network::row_of(n1.get());
    const std::size_t rp2 = network::row_of(p2.get());
    const std::size_t rn2 = network::row_of(n2.get());
    net.add_a(rp1, rp2, g_);
    net.add_a(rp1, rn2, -g_);
    net.add_a(rn1, rp2, -g_);
    net.add_a(rn1, rn2, g_);
    // ... and i(port2) = -g * v(port1).
    net.add_a(rp2, rp1, -g_);
    net.add_a(rp2, rn1, g_);
    net.add_a(rn2, rp1, g_);
    net.add_a(rn2, rn1, -g_);
}

// ------------------------------------------------------------------- ammeter

ammeter::ammeter(const std::string& name, network& net, pin a, pin b)
    : component(name, net), p("p", *this, a), n("n", *this, b) {}

void ammeter::stamp(network& net) {
    // 0 V across:  v_a - v_b = 0
    net.stamp_branch(net.branch_row(*this), p.get(), n.get());
}

}  // namespace sca::eln
