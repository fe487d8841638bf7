#include "eln/subcircuit.hpp"

#include <string>

#include "util/report.hpp"

namespace sca::eln {

// ---------------------------------------------------------------- rc_lowpass

rc_lowpass::rc_lowpass(const de::module_name& nm, network& net, double r_ohms,
                       double c_farads)
    : subcircuit(nm, net), in("in", *this, nature::electrical),
      out("out", *this, nature::electrical), ref("ref", *this, nature::electrical),
      r_("r", net, in, out, r_ohms), c_("c", net, out, ref, c_farads) {}

// --------------------------------------------------------- resistive_divider

resistive_divider::resistive_divider(const de::module_name& nm, network& net,
                                     double r_top, double r_bottom)
    : subcircuit(nm, net), in("in", *this, nature::electrical),
      out("out", *this, nature::electrical), ref("ref", *this, nature::electrical),
      top_("top", net, in, out, r_top), bottom_("bottom", net, out, ref, r_bottom) {}

// ----------------------------------------------------------------- rc_ladder

rc_ladder::rc_ladder(const de::module_name& nm, network& net, unsigned sections,
                     double r_total, double c_total)
    : subcircuit(nm, net), a("a", *this, nature::electrical),
      b("b", *this, nature::electrical), ref("ref", *this, nature::electrical),
      sections_(sections) {
    util::require(sections >= 1, name(), "rc_ladder needs at least one section");
    util::require(r_total > 0.0 && c_total > 0.0, name(),
                  "rc_ladder needs positive total resistance and capacitance");
    const double r_per = r_total / sections;
    const double c_per = c_total / sections;
    pin prev = a;  // each section starts where the previous one ended
    for (unsigned i = 0; i < sections; ++i) {
        const pin tap = i + 1 == sections ? pin(b) : pin(internal("t" + std::to_string(i)));
        make_child<resistor>("r" + std::to_string(i), this->net(), prev, tap, r_per);
        make_child<capacitor>("c" + std::to_string(i), this->net(), tap, ref, c_per);
        prev = tap;
    }
}

}  // namespace sca::eln
