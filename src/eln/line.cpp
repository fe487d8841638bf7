#include "eln/line.hpp"

#include "util/report.hpp"

namespace sca::eln {

// ------------------------------------------------------------------ rc_line

rc_line::rc_line(const std::string& name, network& net, pin a_pin, pin b_pin,
                 pin ref_pin, double r_total, double c_total, std::size_t sections)
    : component(name, net), a("a", *this, nature::electrical, a_pin),
      b("b", *this, nature::electrical, b_pin), ref("ref", *this, ref_pin),
      r_total_(r_total), c_total_(c_total), sections_(sections) {
    util::require(r_total > 0.0 && c_total > 0.0, this->name(),
                  "line parameters must be positive");
    util::require(sections >= 1, this->name(), "at least one section required");
    for (std::size_t i = 0; i + 1 < sections; ++i) {
        internal_.push_back(
            net.create_node(this->name() + ".n" + std::to_string(i)));
    }
}

void rc_line::stamp(network& net) {
    const double g = static_cast<double>(sections_) / r_total_;  // per-section 1/R
    const double c = c_total_ / static_cast<double>(sections_);
    node prev = a.get();
    for (std::size_t i = 0; i < sections_; ++i) {
        const node next = i + 1 < sections_ ? internal_[i] : b.get();
        net.stamp_conductance(prev, next, g);
        // Shunt capacitance split at the section boundary.
        net.stamp_capacitance(next, ref.get(), c);
        prev = next;
    }
}

// ---------------------------------------------------------------- rlgc_line

rlgc_line::rlgc_line(const std::string& name, network& net, pin a_pin, pin b_pin,
                     pin ref_pin, double r_total, double l_total, double g_total,
                     double c_total, std::size_t sections)
    : component(name, net), a("a", *this, nature::electrical, a_pin),
      b("b", *this, nature::electrical, b_pin), ref("ref", *this, ref_pin),
      r_total_(r_total), l_total_(l_total), g_total_(g_total), c_total_(c_total),
      sections_(sections) {
    util::require(r_total >= 0.0 && l_total > 0.0 && g_total >= 0.0 && c_total > 0.0,
                  this->name(), "line parameters out of range");
    util::require(sections >= 1, this->name(), "at least one section required");
    // Two internal nodes per section (between R and L, and the chain node),
    // except the last chain node which is the b terminal.
    for (std::size_t i = 0; i < sections; ++i) {
        nodes_.push_back(net.create_node(this->name() + ".m" + std::to_string(i)));
        if (i + 1 < sections) {
            nodes_.push_back(net.create_node(this->name() + ".n" + std::to_string(i)));
        }
    }
}

void rlgc_line::stamp(network& net) {
    const auto n = static_cast<double>(sections_);
    const double r = r_total_ / n;
    const double l = l_total_ / n;
    const double g_sh = g_total_ / n;
    const double c = c_total_ / n;

    node prev = a.get();
    std::size_t idx = 0;
    for (std::size_t i = 0; i < sections_; ++i) {
        const node mid = nodes_[idx++];
        const node next = i + 1 < sections_ ? nodes_[idx++] : b.get();
        // Series R then L.
        if (r > 0.0) {
            net.stamp_conductance(prev, mid, 1.0 / r);
        } else {
            // r == 0: collapse with a large conductance to keep MNA regular.
            net.stamp_conductance(prev, mid, 1e12);
        }
        const std::size_t k = net.branch_row(*this, "il" + std::to_string(i));
        net.stamp_branch(k, mid, next);
        net.add_b(k, k, -l);
        // Shunt G + C at the section end.
        if (g_sh > 0.0) net.stamp_conductance(next, ref.get(), g_sh);
        net.stamp_capacitance(next, ref.get(), c);
        prev = next;
    }
}

}  // namespace sca::eln
