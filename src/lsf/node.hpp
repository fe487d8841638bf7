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

/// Base class of signal-flow blocks (the vertices of the flow graph).
class block : public de::object {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "lsf_block"; }

    /// Stamp the dynamic equations (A, B, rhs).
    virtual void stamp(system& sys) = 0;

    /// Stamp the t=0 consistent-initialization equations into `init`.
    /// Algebraic blocks restate their relation; dynamic blocks pin their
    /// states to the configured initial values (paper §3: the formal
    /// definition of "a consistent initial (quiescent) state").
    virtual void stamp_init(system& sys, solver::equation_system& init, double t0) = 0;

    /// TDF exchange hooks (converter blocks).
    virtual void read_tdf_inputs(system&) {}
    virtual void write_tdf_outputs(system&) {}

protected:
    block(std::string name, system& sys);

    system* sys_;
};

class system : public tdf::dae_module {
public:
    explicit system(const de::module_name& nm) : tdf::dae_module(nm) {}

    [[nodiscard]] const char* kind() const noexcept override { return "lsf_system"; }

    /// Create a named flow quantity.
    [[nodiscard]] signal create_signal(const std::string& name);

    void register_block(block& b) { blocks_.push_back(&b); }

    /// Current value of a signal (valid once simulation started).
    [[nodiscard]] double value(const signal& s) const;

    // --- stamping services (used by blocks) -----------------------------------
    /// Claim the defining equation of `s`; errors on double drivers.
    /// Returns the equation row (== the signal's unknown index).
    std::size_t claim_driver(const signal& s, const block& driver);

    /// Extra internal unknown (e.g. a transfer-function state).
    std::size_t add_state(const block& b, const std::string& suffix);

    solver::equation_system& sys() { return raw_system(); }

    /// Block-visible values-only refresh (after sys().set_stamp on a slot).
    void component_value_update() { request_value_update(); }

    [[nodiscard]] const std::vector<block*>& blocks() const noexcept { return blocks_; }

protected:
    void build_equations() override;
    void read_inputs() override;
    void write_outputs() override;
    std::vector<double> initial_state() override;

private:
    std::vector<std::string> signal_names_;
    std::vector<block*> blocks_;
    std::map<std::size_t, const block*> drivers_;
    std::map<std::pair<const block*, std::string>, std::size_t> states_;
};

}  // namespace sca::lsf

#endif  // SCA_LSF_NODE_HPP
