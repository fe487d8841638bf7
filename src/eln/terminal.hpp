// Bindable conservative-law ports (the structural face of the ELN view).
//
// A terminal is the named connection point of a component or subcircuit.
// A component takes its pins when it is built: each pin is a network node
//
//   eln::resistor r("r", net, vin, vout, 1e3);
//
// or a terminal of the enclosing subcircuit, so composite blocks expose their
// pins without knowing the outer netlist:
//
//   struct divider : eln::subcircuit {
//       eln::terminal in, out, ref;
//       eln::resistor top, bottom;
//       divider(const sca::de::module_name& nm, eln::network& net)
//           : subcircuit(nm, net), in("in", *this), out("out", *this),
//             ref("ref", *this), top("top", net, in, out, 1e3),
//             bottom("bottom", net, out, ref, 1e3) {}
//   };
//
// Subcircuit terminals bind later, from the enclosing level (`div.in(vin)`),
// like SystemC module ports.  Forwarding chains are resolved at elaboration;
// an unbound chain is an elaboration error reporting the terminal's full
// hierarchical path.
#ifndef SCA_ELN_TERMINAL_HPP
#define SCA_ELN_TERMINAL_HPP

#include <optional>
#include <string>

#include "eln/node.hpp"
#include "kernel/object.hpp"

namespace sca::eln {

class component;
class network;
class subcircuit;
class terminal;

/// What a terminal binds to: a node of the owning network, or another
/// terminal (typically a pin of the enclosing subcircuit).
class pin {
public:
    pin(const node& n) : node_(n) {}    // NOLINT(google-explicit-constructor)
    pin(terminal& t) : forward_(&t) {}  // NOLINT(google-explicit-constructor)

private:
    friend class terminal;
    node node_;
    terminal* forward_ = nullptr;
};

class terminal : public de::object {
public:
    /// Pin of a component, bound at construction; with `expected`, node
    /// bindings are nature-checked.
    terminal(std::string name, component& owner, pin to);
    terminal(std::string name, component& owner, nature expected, pin to);
    /// Exposed pin of a subcircuit, bound later by the enclosing level.
    terminal(std::string name, subcircuit& owner);
    terminal(std::string name, subcircuit& owner, nature expected);

    ~terminal() override;

    [[nodiscard]] const char* kind() const noexcept override { return "eln_terminal"; }

    /// Bind to a node of the owning network, or hierarchically to another
    /// terminal.  A terminal binds exactly once.
    void bind(pin to);
    void operator()(pin to) { bind(to); }

    [[nodiscard]] bool is_bound() const noexcept {
        return has_node_ || forward_ != nullptr;
    }

    /// Follow the forwarding chain to the terminal node.  Elaboration-time
    /// error (with this terminal's full hierarchical path) when unbound.
    void resolve();

    /// The resolved node.  Valid after resolve() — immediately for terminals
    /// bound directly to a node.
    [[nodiscard]] const node& get() const;

    [[nodiscard]] network& net() const noexcept { return *net_; }

private:
    terminal(std::string name, de::object& owner, network& net,
             std::optional<nature> expected);
    void check_node(const node& n) const;

    network* net_;
    node node_;
    terminal* forward_ = nullptr;
    bool has_node_ = false;
    std::optional<nature> expected_;

    // Teardown is order-agnostic: whichever of terminal/network dies first
    // unlinks from the other (see ~network).
    friend class network;
};

}  // namespace sca::eln

#endif  // SCA_ELN_TERMINAL_HPP
