#include "kernel/module.hpp"

#include "kernel/signal.hpp"
#include "util/report.hpp"

namespace sca::de {

method_handle& method_handle::sensitive(port_base& p) {
    p.add_pending_sensitivity(*process_);
    return *this;
}

module::module(const module_name& nm) : object(nm.str()) {
    context().push_construction_parent(*this);
}

module::~module() {
    for (method_process* p : processes_) p->retire();
}

method_handle module::declare_method(const std::string& name, std::function<void()> body) {
    method_process& p = context().register_method(this->name() + "." + name, std::move(body));
    processes_.push_back(&p);
    return method_handle(p);
}

}  // namespace sca::de
