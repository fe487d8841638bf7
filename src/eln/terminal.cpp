#include "eln/terminal.hpp"

#include "eln/network.hpp"
#include "eln/subcircuit.hpp"
#include "util/report.hpp"

namespace sca::eln {

terminal::terminal(std::string name, de::object& owner, network& net,
                   std::optional<nature> expected)
    : de::object(std::move(name), owner), net_(&net), expected_(expected) {
    net.register_terminal(*this);
}

// The pin constructors delegate, so the terminal is fully constructed (and
// registered) before it binds: a rejected pin runs ~terminal, which takes the
// registration back out of the network.
terminal::terminal(std::string name, component& owner, pin to)
    : terminal(std::move(name), owner, owner.net(), std::nullopt) {
    bind(to);
}

terminal::terminal(std::string name, component& owner, nature expected, pin to)
    : terminal(std::move(name), owner, owner.net(), expected) {
    bind(to);
}

terminal::terminal(std::string name, subcircuit& owner)
    : terminal(std::move(name), owner, owner.net(), std::nullopt) {}

terminal::terminal(std::string name, subcircuit& owner, nature expected)
    : terminal(std::move(name), owner, owner.net(), expected) {}

terminal::~terminal() {
    if (net_ != nullptr) net_->unregister_terminal(*this);
}

void terminal::check_node(const node& n) const {
    if (!n.valid()) util::report_fatal(name(), "cannot bind an invalid node handle");
    if (n.net() != net_) {
        util::report_fatal(name(), "node belongs to a different network (" +
                                       n.net()->name() + ") than this terminal's owner (" +
                                       net_->name() + ")");
    }
    if (expected_) network::check_nature(n, *expected_, name());
}

void terminal::bind(pin to) {
    util::require(!is_bound(), name(),
                  "ELN terminal is already bound; a terminal binds exactly one "
                  "node or parent terminal");
    if (to.forward_ == nullptr) {
        check_node(to.node_);
        node_ = to.node_;
        has_node_ = true;
        return;
    }
    util::require(to.forward_ != this, name(), "ELN terminal cannot forward to itself");
    if (to.forward_->net_ != net_) {
        util::report_fatal(name(), "terminal belongs to a different network (" +
                                       to.forward_->net_->name() +
                                       ") than this terminal's owner (" + net_->name() +
                                       ")");
    }
    forward_ = to.forward_;
}

void terminal::resolve() {
    if (has_node_) return;
    // Follow the forwarding chain; targets need not be resolved yet.
    const terminal* t = this;
    int hops = 0;
    while (!t->has_node_ && t->forward_ != nullptr) {
        t = t->forward_;
        util::require(++hops < 1024, name(), "ELN terminal binding cycle detected");
    }
    if (t == this) util::report_fatal(name(), "unbound ELN terminal");
    if (!t->has_node_) {
        util::report_fatal(name(), "unbound ELN terminal (forwarding chain ends at " +
                                       t->name() + " without reaching a node)");
    }
    check_node(t->node_);
    node_ = t->node_;
    has_node_ = true;
}

const node& terminal::get() const {
    util::require(has_node_, name(),
                  "ELN terminal is not resolved to a node yet (bind it and "
                  "elaborate first)");
    return node_;
}

}  // namespace sca::eln
