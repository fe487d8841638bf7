// The simulation context: object registry, construction stack for
// hierarchical naming, the scheduler, and elaboration.
//
// Contexts are explicit and resettable so that many simulations can run in
// one process (essential for unit tests).  A thread-local "current context"
// pointer lets modules/signals/events register themselves at construction
// without threading a context argument through every model constructor.
#ifndef SCA_KERNEL_CONTEXT_HPP
#define SCA_KERNEL_CONTEXT_HPP

#include <functional>
#include <memory>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "kernel/scheduler.hpp"
#include "kernel/time.hpp"
#include "util/telemetry.hpp"
#include "util/trace_export.hpp"

namespace sca::de {

class object;
class module;
class method_process;
class event;

/// One independent simulation: object hierarchy + scheduler + elaboration.
class simulation_context {
public:
    /// Creates the context and makes it current.
    simulation_context();
    ~simulation_context();

    simulation_context(const simulation_context&) = delete;
    simulation_context& operator=(const simulation_context&) = delete;

    /// The context new kernel objects register with. Never null once a
    /// context exists; throws if none.
    static simulation_context& current();

    /// Make this context current (e.g. when juggling several in tests).
    void make_current() noexcept;

    [[nodiscard]] scheduler& sched() noexcept { return scheduler_; }
    [[nodiscard]] const scheduler& sched() const noexcept { return scheduler_; }
    [[nodiscard]] const time& now() const noexcept { return scheduler_.now(); }

    // --- telemetry -----------------------------------------------------------
    /// This context's histogram timers (SCA_SCOPED_TIMER sites).
    [[nodiscard]] util::metrics_registry& metrics() noexcept { return metrics_; }
    [[nodiscard]] const util::metrics_registry& metrics() const noexcept { return metrics_; }

    /// This context's span tracer (off until tracer().enable()).
    [[nodiscard]] util::event_tracer& tracer() noexcept { return tracer_; }

    /// A collector appends the counters and gauges its owner keeps as plain
    /// members (the scheduler, TDF modules and clusters, solvers) to the
    /// snapshot being built; it runs at every collection and changes nothing.
    using metrics_collector = std::function<void(util::metrics_snapshot&)>;
    void add_metrics_collector(metrics_collector collector);

    /// Every collector's values, sorted by name: the deterministic counters
    /// and gauges that travel over the SCA1 wire.
    [[nodiscard]] util::metrics_snapshot collect_wire_metrics() const;
    /// collect_wire_metrics() plus the registry's histograms, sorted by name.
    [[nodiscard]] util::metrics_snapshot collect_metrics() const;

    // --- construction-time services ----------------------------------------
    void register_object(object& obj);
    void unregister_object(object& obj);
    [[nodiscard]] object* construction_parent() const noexcept;
    void push_construction_parent(object& obj);
    void pop_construction_parent();
    [[nodiscard]] std::size_t construction_depth() const noexcept {
        return construction_stack_.size();
    }

    /// Find an object by full hierarchical name (nullptr if absent).
    [[nodiscard]] object* find_object(const std::string& full_name) const noexcept;
    [[nodiscard]] const std::vector<object*>& objects() const noexcept { return objects_; }

    /// The object hierarchy in depth-first pre-order: every root (object
    /// without a parent) in registration order, each immediately followed by
    /// its subtree.  Parents always precede their children; this is the
    /// traversal order of the elaboration walk.
    [[nodiscard]] std::vector<object*> hierarchy() const;

    // --- event bookkeeping ---------------------------------------------------
    /// Every live event, in registration order.  Build-time events register
    /// deterministically (model construction is replayed by the scenario
    /// factory), which is what lets core/snapshot identify an event across
    /// processes by (name, occurrence index) instead of storing ids.
    [[nodiscard]] const std::vector<event*>& events() const noexcept { return events_; }
    void register_event(event& e);
    void unregister_event(event& e);

    // --- process bookkeeping -------------------------------------------------
    method_process& register_method(std::string name, std::function<void()> body);
    void next_trigger(event& e);
    void next_trigger(const time& delay);
    [[nodiscard]] method_process* running_process() const noexcept { return running_; }
    void set_running_process(method_process* p) noexcept { running_ = p; }

    // --- elaboration & run ----------------------------------------------------
    /// Hook executed during elaborate(), after port binding; used by the AMS
    /// synchronization layer to discover and schedule TDF clusters.
    void add_elaboration_hook(std::function<void()> hook);

    /// Resolve port bindings, call end_of_elaboration on modules, run hooks.
    /// Idempotent; called automatically by run() if needed.
    void elaborate();

    [[nodiscard]] bool elaborated() const noexcept { return elaborated_; }

    /// Advance the simulation by `duration` from the current time.
    void run(const time& duration);

    /// Run until no activity remains.
    void run_to_completion();

    /// Per-context extension data keyed by type; created on first access.
    /// Used by MoC layers (e.g. the TDF registry) to attach their state to
    /// the simulation without the kernel knowing about them.
    template <typename T>
    T& domain_data() {
        const std::type_index key(typeid(T));
        auto it = domain_data_.find(key);
        if (it == domain_data_.end()) {
            it = domain_data_.emplace(key, std::make_shared<T>(*this)).first;
        }
        return *static_cast<T*>(it->second.get());
    }

private:
    // The tracer precedes the scheduler, which records into it.
    util::metrics_registry metrics_;
    util::event_tracer tracer_;
    std::vector<metrics_collector> metrics_collectors_;
    scheduler scheduler_;
    std::vector<object*> objects_;
    std::vector<event*> events_;
    std::vector<object*> construction_stack_;
    std::vector<std::unique_ptr<method_process>> processes_;
    std::vector<std::function<void()>> elaboration_hooks_;
    std::unordered_map<std::type_index, std::shared_ptr<void>> domain_data_;
    method_process* running_ = nullptr;
    bool elaborated_ = false;
    simulation_context* previous_current_ = nullptr;
};

/// RAII helper used in module constructor argument lists to establish the
/// hierarchical name of the module being constructed (the SystemC
/// sc_module_name idiom).
class module_name {
public:
    module_name(const char* name);  // NOLINT(google-explicit-constructor)
    module_name(const std::string& name);  // NOLINT(google-explicit-constructor)
    ~module_name();

    module_name(const module_name&) = delete;
    module_name& operator=(const module_name&) = delete;

    [[nodiscard]] const std::string& str() const noexcept { return name_; }

private:
    std::string name_;
    std::size_t stack_depth_at_ctor_ = 0;
};

}  // namespace sca::de

#endif  // SCA_KERNEL_CONTEXT_HPP
