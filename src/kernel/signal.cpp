#include "kernel/signal.hpp"

#include "kernel/process.hpp"

namespace sca::de {

void port_base::require_unbound() const {
    if (bound()) {
        util::report_fatal(name(), "DE port is already bound (to " +
                                       (bound_signal_ != nullptr ? bound_signal_->name()
                                                                 : bound_port_->name()) +
                                       "); a port binds exactly one signal or parent port");
    }
}

void port_base::resolve() {
    // Follow port-to-port chains to the terminal signal.
    const port_base* p = this;
    int hops = 0;
    while (p->bound_signal_ == nullptr && p->bound_port_ != nullptr) {
        p = p->bound_port_;
        util::require(++hops < 1024, name(), "port binding cycle detected");
    }
    if (p->bound_signal_ == nullptr && optional_) {
        util::require(pending_sensitive_.empty(), name(),
                      "optional port with pending sensitivity left unbound");
        return;
    }
    util::require(p->bound_signal_ != nullptr, name(), "port is unbound after elaboration");
    bound_signal_ = p->bound_signal_;
    typed_signal_ = nullptr;
    for (method_process* proc : pending_sensitive_) {
        proc->make_sensitive(bound_signal_->value_changed_event());
    }
    pending_sensitive_.clear();
}

}  // namespace sca::de
