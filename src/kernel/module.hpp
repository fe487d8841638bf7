// Module base class: the structural unit of a model.
//
// Usage follows the SystemC idiom without macros:
//
//   struct lowpass : sca::de::module {
//       sca::de::in<double> x;
//       sca::de::out<double> y;
//       explicit lowpass(const sca::de::module_name& nm)
//           : module(nm), x("x"), y("y") {
//           declare_method("step", [this] { y.write(0.5 * x.read()); })
//               .sensitive(x);
//       }
//   };
#ifndef SCA_KERNEL_MODULE_HPP
#define SCA_KERNEL_MODULE_HPP

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/object.hpp"
#include "kernel/process.hpp"
#include "util/object_bag.hpp"

namespace sca::de {

class port_base;

/// Fluent helper returned by module::declare_method for sensitivity setup.
class method_handle {
public:
    explicit method_handle(method_process& p) : process_(&p) {}

    /// Sensitize to an event.
    method_handle& sensitive(event& e) {
        process_->make_sensitive(e);
        return *this;
    }

    /// Sensitize to a port's value-changed event (resolved at elaboration).
    method_handle& sensitive(port_base& p);

    method_handle& dont_initialize() {
        process_->dont_initialize();
        return *this;
    }

    [[nodiscard]] method_process& process() noexcept { return *process_; }

private:
    method_process* process_;
};

class module : public object {
public:
    [[nodiscard]] const char* kind() const noexcept override { return "module"; }

    /// Called once after port binding, before simulation starts.
    virtual void end_of_elaboration() {}

    /// Construct a child object owned by this module.  The child is attached
    /// below this module in the object hierarchy (its name becomes
    /// "<this>.<child>") and is destroyed with the module, newest first —
    /// object_bag semantics, so grandchildren die before the structures they
    /// registered with.  Works both inside the constructor (composite
    /// modules building their internals) and afterwards (builders growing a
    /// hierarchy from outside).
    template <typename T, typename... Args>
    T& make_child(Args&&... args) {
        context().make_current();
        const construction_scope scope(*this);
        return children_bag_.make<T>(std::forward<Args>(args)...);
    }

    /// Number of owned children (diagnostics/tests).
    [[nodiscard]] std::size_t owned_children() const noexcept {
        return children_bag_.size();
    }

protected:
    explicit module(const module_name& nm);
    /// Retires the processes this module declared (method_process::retire):
    /// their bodies capture the module, which is going away.
    ~module() override;

    /// Register a method process owned by this module.
    method_handle declare_method(const std::string& name, std::function<void()> body);

    /// One-shot dynamic trigger for the currently running method.
    void next_trigger(event& e) { context().next_trigger(e); }
    void next_trigger(const time& delay) { context().next_trigger(delay); }

    /// Current simulation time.
    [[nodiscard]] const time& now() const noexcept { return context().now(); }

private:
    /// RAII frame making `parent` the construction parent for the duration
    /// of a child construction; pops back to the entry depth even when the
    /// child's module_name already unwound part of the stack.
    class construction_scope {
    public:
        explicit construction_scope(module& parent)
            : ctx_(&parent.context()), depth_(ctx_->construction_depth()) {
            ctx_->push_construction_parent(parent);
        }
        ~construction_scope() {
            while (ctx_->construction_depth() > depth_) ctx_->pop_construction_parent();
        }
        construction_scope(const construction_scope&) = delete;
        construction_scope& operator=(const construction_scope&) = delete;

    private:
        simulation_context* ctx_;
        std::size_t depth_;
    };

    std::vector<method_process*> processes_;
    util::object_bag children_bag_;
};

}  // namespace sca::de

#endif  // SCA_KERNEL_MODULE_HPP
