// Distributed RC/RLC transmission-line approximations as lumped ladders —
// the subscriber-line macromodel of the paper's Figure 1 ("the system
// environment would be modelled as linear electrical networks").
//
// Like the primitives, lines take their pins (a, b, ref) at construction,
// each a node or a terminal of the enclosing subcircuit, so they compose
// hierarchically with subcircuits.
#ifndef SCA_ELN_LINE_HPP
#define SCA_ELN_LINE_HPP

#include <memory>
#include <vector>

#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/terminal.hpp"

namespace sca::eln {

/// N-section lumped RC approximation of a distributed line with total series
/// resistance `r_total` and total shunt capacitance `c_total` between the
/// `a` and `b` terminals (shunt elements return to `ref`).
class rc_line : public component {
public:
    terminal a, b, ref;

    rc_line(const std::string& name, network& net, pin a, pin b, pin ref,
            double r_total, double c_total, std::size_t sections);

    void stamp(network& net) override;

    [[nodiscard]] std::size_t sections() const noexcept { return sections_; }
    /// Internal node `i` (0 .. sections-2), for probing along the line.
    [[nodiscard]] const node& internal(std::size_t i) const { return internal_.at(i); }

private:
    double r_total_, c_total_;
    std::size_t sections_;
    std::vector<node> internal_;
};

/// N-section lumped RLGC approximation: series R+L, shunt G+C per section.
/// The standard telegrapher's-equation discretization for lossy lines.
class rlgc_line : public component {
public:
    terminal a, b, ref;

    rlgc_line(const std::string& name, network& net, pin a, pin b, pin ref,
              double r_total, double l_total, double g_total, double c_total,
              std::size_t sections);

    void stamp(network& net) override;

    [[nodiscard]] std::size_t sections() const noexcept { return sections_; }

private:
    double r_total_, l_total_, g_total_, c_total_;
    std::size_t sections_;
    std::vector<node> nodes_;                 // internal chain nodes
    std::vector<std::size_t> branch_suffix_;  // inductor branch ids per section
};

}  // namespace sca::eln

#endif  // SCA_ELN_LINE_HPP
