// Nonlinear network elements (paper phase 2: "support of non linear DAEs and
// their simulation using variable time steps", "formulation of implicit
// equations").  Adding any of these to a network switches the embedded solver
// to the variable-step Newton engine automatically.
//
// Like the primitives, every device takes its pins at construction (a node
// or a terminal of the enclosing subcircuit) and exposes them as
// eln::terminal members.
#ifndef SCA_ELN_NONLINEAR_HPP
#define SCA_ELN_NONLINEAR_HPP

#include <functional>

#include "eln/network.hpp"
#include "eln/terminal.hpp"

namespace sca::eln {

/// Shockley diode with exponential limiting for Newton robustness.
class diode : public component {
public:
    terminal a, c;  // anode, cathode

    diode(const std::string& name, network& net, pin anode, pin cathode,
          double saturation_current = 1e-14, double emission_coefficient = 1.0);

    void stamp(network& net) override;

private:
    double is_;
    double n_;
};

/// Square-law MOS transistor (level-1 style, continuous across regions),
/// symmetric in drain and source.  A p-channel device is the n-channel one
/// with every node voltage negated, so its parameters are positive too.
class mos : public component {
public:
    terminal d, g, s;

    void stamp(network& net) override;

protected:
    /// `k` is the transconductance parameter (A/V^2), `vth` the threshold,
    /// `lambda` the channel-length modulation.
    mos(const std::string& name, network& net, pin drain, pin gate, pin source, double k,
        double vth, double lambda, bool p_channel);

private:
    double k_, vth_, lambda_;
    bool p_channel_;
};

/// Square-law NMOS transistor.
class nmos : public mos {
public:
    nmos(const std::string& name, network& net, pin drain, pin gate, pin source,
         double k = 2e-3, double vth = 0.7, double lambda = 0.01)
        : mos(name, net, drain, gate, source, k, vth, lambda, false) {}
};

/// Square-law PMOS transistor (parameters given as positive quantities).
class pmos : public mos {
public:
    pmos(const std::string& name, network& net, pin drain, pin gate, pin source,
         double k = 1e-3, double vth = 0.7, double lambda = 0.01)
        : mos(name, net, drain, gate, source, k, vth, lambda, true) {}
};

/// General nonlinear voltage-controlled current source:
/// i(p->n) = f(v(cp) - v(cn)); the derivative is supplied by the model.
/// Useful for saturating amplifier characteristics and custom devices.
class nonlinear_vccs : public component {
public:
    terminal cp, cn, p, n;

    nonlinear_vccs(const std::string& name, network& net, pin cp, pin cn, pin p, pin n,
                   std::function<double(double)> f, std::function<double(double)> dfdv);

    void stamp(network& net) override;

private:
    std::function<double(double)> f_;
    std::function<double(double)> dfdv_;
};

}  // namespace sca::eln

#endif  // SCA_ELN_NONLINEAR_HPP
