// The conservative-law network view (paper §3: "SystemC-AMS must support the
// description and the simulation of continuous-time systems as
// conservative-law models").
//
// A network is a TDF module embedding a linear (or nonlinear) DAE assembled
// by Modified Nodal Analysis: one KCL row per non-ground node, one branch
// row per voltage-defined element (sources, inductors, transformers).  The
// network advances one TDF timestep per activation and exchanges samples
// with the dataflow world through converter components.
#ifndef SCA_ELN_NETWORK_HPP
#define SCA_ELN_NETWORK_HPP

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "eln/node.hpp"
#include "tdf/dae_module.hpp"

namespace sca::eln {

class network;
class terminal;

/// Base class of all network components.  A component registers with its
/// network at construction (see tdf::dae_element) and stamps its equations
/// whenever the network (re)builds; its per-step hooks are the element's
/// read_inputs() and write_outputs().
class component : public tdf::dae_element {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "eln_component"; }

    /// Contribute stamps to the network's equation system.
    virtual void stamp(network& net) = 0;

    /// The network this component stamps into.
    [[nodiscard]] network& net() const noexcept;

protected:
    component(std::string name, network& net);
};

/// Marker for "no row" (ground) in stamping helpers.
inline constexpr std::size_t ground_row = std::numeric_limits<std::size_t>::max();

class network : public tdf::dae_module {
public:
    explicit network(const de::module_name& nm) : tdf::dae_module(nm) {}
    /// Detaches any still-registered terminals so their own destructors do
    /// not reach back into a dead network (components are unlinked by
    /// ~dae_module).
    ~network() override;

    [[nodiscard]] const char* kind() const noexcept override { return "eln_network"; }

    // --- topology -------------------------------------------------------------
    /// Create a named node of the given nature.  Node names are unique per
    /// network; a duplicate is a construction error (subcircuit-internal
    /// nodes are auto-prefixed with the instance path, so composites stay
    /// unique without effort).
    [[nodiscard]] node create_node(const std::string& name,
                                   nature k = nature::electrical);

    /// Reference node of a nature (0 V / 0 m/s / ambient).
    [[nodiscard]] node ground(nature k = nature::electrical);

    /// Terminals register at construction and deregister on destruction;
    /// their forwarding chains are resolved at elaboration (see
    /// resolve_terminals).
    void register_terminal(terminal& t) { terminals_.push_back(&t); }
    void unregister_terminal(terminal& t);

    /// Resolve every registered terminal to its node, reporting unbound
    /// chains with the full hierarchical path.  Runs automatically at
    /// end_of_elaboration and again (idempotently) before equation setup,
    /// so analyses on never-elaborated testbenches still get diagnostics.
    void resolve_terminals();

    void end_of_elaboration() override { resolve_terminals(); }

    /// Temperature used by noise models (kelvin).
    void set_temperature(double kelvin) { temperature_ = kelvin; }
    [[nodiscard]] double temperature() const noexcept { return temperature_; }

    // --- probes (valid once simulation started) -------------------------------
    /// Across value of a node (voltage, velocity, temperature...).
    [[nodiscard]] double voltage(const node& n) const;
    /// Across difference between two nodes.
    [[nodiscard]] double voltage(const node& a, const node& b) const;
    /// Branch current of a component that owns a branch unknown.
    [[nodiscard]] double current(const component& c) const;

    // --- stamping interface (used by components) -------------------------------
    /// Row/column index of a node's KCL equation (ground_row for ground).
    [[nodiscard]] static std::size_t row_of(const node& n) noexcept {
        return n.is_ground() ? ground_row : n.index();
    }

    /// Stable branch unknown for a component (allocated on first request).
    std::size_t branch_row(const component& c, const std::string& suffix = "i");
    /// Branch row if the component has one; ground_row otherwise.
    [[nodiscard]] std::size_t find_branch(const component& c) const;

    /// Ground-aware stamps into A / B.
    void add_a(std::size_t r, std::size_t c, double v);
    void add_b(std::size_t r, std::size_t c, double v);
    /// Branch of through-unknown `k` from `a` to `b`: its KCL columns (+1 at
    /// a, -1 at b) and its across row v(a) - v(b); the element adds the rest
    /// of its constitutive row.
    void stamp_branch(std::size_t k, const node& a, const node& b);
    /// Conductance / capacitance two-terminal patterns.
    void stamp_conductance(const node& a, const node& b, double g);
    void stamp_capacitance(const node& a, const node& b, double c);

    // --- stamp slots (values-only incremental updates) -------------------------
    /// Allocate a runtime-updatable value slot (see equation_system).
    [[nodiscard]] solver::stamp_handle add_stamp_slot(double initial_value);
    /// Ground-aware weighted slot references into A / B.
    void stamp_a_slot(solver::stamp_handle h, std::size_t r, std::size_t c, double w);
    void stamp_b_slot(solver::stamp_handle h, std::size_t r, std::size_t c, double w);
    /// Two-terminal conductance/capacitance patterns whose value is the slot.
    void stamp_conductance_slot(solver::stamp_handle h, const node& a, const node& b);
    void stamp_capacitance_slot(solver::stamp_handle h, const node& a, const node& b);
    /// Ground-aware RHS contributions.
    void add_rhs_constant(std::size_t r, double v);
    void add_rhs_source(std::size_t r, std::function<double(double)> fn);
    /// Ground-aware externally driven slot; returns slot id (or SIZE_MAX for
    /// ground rows, which set_input ignores).
    std::size_t add_input(std::size_t r);
    void set_input(std::size_t slot, double v);

    /// AC stimulus / noise registration (ground-aware helpers).
    void add_ac_source(std::size_t r, std::complex<double> amplitude);
    void add_noise_between(const node& a, const node& b, std::function<double(double)> psd,
                           std::string name);

    /// Check that a terminal has the expected nature.
    static void check_nature(const node& n, nature expected, const std::string& who);

protected:
    void build_equations() override;

private:
    struct node_info {
        std::string name;
        nature kind;
    };

    std::vector<node_info> nodes_;
    std::set<std::string> node_names_;
    std::vector<terminal*> terminals_;
    std::map<std::pair<const component*, std::string>, std::size_t> branch_rows_;
    // First branch row of each component: O(log #components) lookup for
    // current() probes instead of a scan over every (component, suffix) key.
    std::map<const component*, std::size_t> primary_branch_;
    double temperature_ = 300.0;
};

inline network& component::net() const noexcept { return static_cast<network&>(view()); }

}  // namespace sca::eln

#endif  // SCA_ELN_NETWORK_HPP
