// Linear signal-flow (LSF) view (paper §3: "signal-flow modeling is the best
// candidate to be supported by SystemC-AMS ... The underlying principle of
// signal-flow modeling is a directed graph. Each edge represents a quantity
// and each vertex represents a relation").
//
// An lsf::system is a TDF module embedding a linear DAE; every lsf::signal
// is one unknown, and every block contributes the defining equation of its
// output signal (plus internal state equations for dynamic blocks).
#ifndef SCA_LSF_NODE_HPP
#define SCA_LSF_NODE_HPP

#include <map>
#include <string>
#include <vector>

#include "tdf/dae_module.hpp"

namespace sca::lsf {

class system;

/// Value handle to a signal-flow quantity (an edge of the flow graph).
class signal {
public:
    signal() = default;

    [[nodiscard]] bool valid() const noexcept { return sys_ != nullptr; }
    [[nodiscard]] std::size_t index() const noexcept { return index_; }
    [[nodiscard]] system* sys() const noexcept { return sys_; }

private:
    friend class system;
    signal(system* sys, std::size_t index) : sys_(sys), index_(index) {}

    system* sys_ = nullptr;
    std::size_t index_ = 0;
};

/// Base class of signal-flow blocks (the vertices of the flow graph).  A
/// block registers with its system at construction (see tdf::dae_element)
/// and stamps the defining equations of its outputs whenever the system
/// (re)builds; converter blocks exchange samples through the element's
/// read_inputs() and write_outputs() hooks.
class block : public tdf::dae_element {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "lsf_block"; }

    /// Stamp the dynamic equations (A, B, rhs); a dynamic block also sets
    /// the initial value of each state row (system::set_initial).
    virtual void stamp(system& sys) = 0;

protected:
    block(std::string name, system& sys);
};

class system : public tdf::dae_module {
public:
    explicit system(const de::module_name& nm) : tdf::dae_module(nm) {}

    [[nodiscard]] const char* kind() const noexcept override { return "lsf_system"; }

    /// Create a named flow quantity.
    [[nodiscard]] signal create_signal(const std::string& name);

    /// Current value of a signal (valid once simulation started).
    [[nodiscard]] double value(const signal& s) const;

    // --- stamping services (used by blocks) -----------------------------------
    /// Claim the defining equation of `s`; errors on double drivers.
    /// Returns the equation row (== the signal's unknown index).
    std::size_t claim_driver(const signal& s, const block& driver);

    /// Extra internal unknown (e.g. a transfer-function state).
    std::size_t add_state(const block& b, const std::string& suffix);

    /// Value at t = 0 of a dynamic row (one with a B entry); such rows
    /// start at 0 unless their block sets another value while stamping.
    void set_initial(std::size_t row, double value);

    solver::equation_system& sys() { return raw_system(); }

protected:
    void build_equations() override;
    /// The consistent initial (quiescent) state: each algebraic row keeps
    /// its relation with q(t0), each dynamic row is pinned to its initial
    /// value (paper §3).
    std::vector<double> initial_state() override;

private:
    std::vector<std::string> signal_names_;
    std::vector<double> initial_;  // set_initial values by row
    std::map<std::size_t, const block*> drivers_;
    std::map<std::pair<const block*, std::string>, std::size_t> states_;
};

}  // namespace sca::lsf

#endif  // SCA_LSF_NODE_HPP
