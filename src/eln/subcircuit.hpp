// Hierarchical composition for conservative-law models: a subcircuit is a
// reusable block of network components exposing eln::terminal pins.
//
//   struct my_filter : eln::subcircuit {
//       eln::terminal in, out, ref;
//       eln::resistor r;
//       eln::capacitor c;
//       my_filter(const sca::de::module_name& nm, eln::network& net,
//                 double r_ohms, double c_farads)
//           : subcircuit(nm, net), in("in", *this), out("out", *this),
//             ref("ref", *this),
//             r("r", net, in, out, r_ohms),      // component pins forward
//             c("c", net, out, ref, c_farads) {}  // to the subcircuit pins
//   };
//
//   my_filter f1("f1", net, 1e3, 100e-9);   // instantiable N times:
//   f1.in(vin); f1.out(vmid); f1.ref(gnd);  // internals are name-unique
//
// Components take their pins when built; the subcircuit's own terminals bind
// afterwards, from the enclosing level, as SystemC module ports do.
//
// Internal nodes created through internal() are auto-prefixed with the
// instance's hierarchical path, so multiple instances never collide in the
// network's (unique) node namespace.  This file also ships the stock blocks
// the examples use: rc_lowpass, resistive_divider, and the lumped rc_ladder
// line model.
#ifndef SCA_ELN_SUBCIRCUIT_HPP
#define SCA_ELN_SUBCIRCUIT_HPP

#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/terminal.hpp"
#include "kernel/module.hpp"

namespace sca::eln {

/// Base class of composite ELN blocks.  A subcircuit is a structural module:
/// it owns components (as members or via make_child) that stamp into the
/// shared network, and exposes terminals for the enclosing level to bind.
class subcircuit : public de::module {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "eln_subcircuit"; }

    [[nodiscard]] network& net() const noexcept { return *net_; }

protected:
    subcircuit(const de::module_name& nm, network& net) : de::module(nm), net_(&net) {}

    /// Create an internal node named "<instance-path>.<name>" — unique per
    /// instance by construction.
    [[nodiscard]] node internal(const std::string& name,
                                nature k = nature::electrical) {
        return net_->create_node(this->name() + "." + name, k);
    }

private:
    network* net_;
};

/// First-order RC lowpass: R from `in` to `out`, C from `out` to `ref`.
class rc_lowpass : public subcircuit {
public:
    terminal in, out, ref;

    rc_lowpass(const de::module_name& nm, network& net, double r_ohms, double c_farads);

    [[nodiscard]] resistor& r() noexcept { return r_; }
    [[nodiscard]] capacitor& c() noexcept { return c_; }

private:
    resistor r_;
    capacitor c_;
};

/// Resistive divider: r_top from `in` to `out`, r_bottom from `out` to `ref`.
class resistive_divider : public subcircuit {
public:
    terminal in, out, ref;

    resistive_divider(const de::module_name& nm, network& net, double r_top,
                      double r_bottom);

    [[nodiscard]] resistor& top() noexcept { return top_; }
    [[nodiscard]] resistor& bottom() noexcept { return bottom_; }

private:
    resistor top_;
    resistor bottom_;
};

/// Lumped RC transmission-line model: `sections` L-sections of series
/// resistance r_total/sections followed by shunt capacitance c_total/sections
/// to `ref`; the interior tap nodes are instance-unique internal nodes.
class rc_ladder : public subcircuit {
public:
    terminal a, b, ref;

    rc_ladder(const de::module_name& nm, network& net, unsigned sections, double r_total,
              double c_total);

    [[nodiscard]] unsigned sections() const noexcept { return sections_; }

private:
    unsigned sections_;
};

}  // namespace sca::eln

#endif  // SCA_ELN_SUBCIRCUIT_HPP
