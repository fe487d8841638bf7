#include "kernel/context.hpp"

#include <algorithm>

#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/object.hpp"
#include "kernel/process.hpp"
#include "kernel/signal.hpp"
#include "util/report.hpp"

namespace sca::de {

namespace {
thread_local simulation_context* g_current = nullptr;

bool by_name(const util::metric_value& a, const util::metric_value& b) {
    return a.name < b.name;
}
}  // namespace

simulation_context::simulation_context() : scheduler_(tracer_) {
    metrics_collectors_.push_back(
        [this](util::metrics_snapshot& out) { scheduler_.report_metrics(out); });
    previous_current_ = g_current;
    g_current = this;
}

void simulation_context::add_metrics_collector(metrics_collector collector) {
    metrics_collectors_.push_back(std::move(collector));
}

util::metrics_snapshot simulation_context::collect_wire_metrics() const {
    util::metrics_snapshot snap;
    for (const auto& c : metrics_collectors_) c(snap);
    std::sort(snap.begin(), snap.end(), by_name);
    return snap;
}

util::metrics_snapshot simulation_context::collect_metrics() const {
    util::metrics_snapshot snap = collect_wire_metrics();
    for (util::metric_value& h : metrics_.snapshot()) snap.push_back(std::move(h));
    std::sort(snap.begin(), snap.end(), by_name);
    return snap;
}

simulation_context::~simulation_context() {
    if (g_current == this) g_current = previous_current_;
}

simulation_context& simulation_context::current() {
    util::require(g_current != nullptr, "simulation_context",
                  "no current context; create a simulation_context first");
    return *g_current;
}

void simulation_context::make_current() noexcept { g_current = this; }

void simulation_context::register_object(object& obj) { objects_.push_back(&obj); }

void simulation_context::unregister_object(object& obj) {
    objects_.erase(std::remove(objects_.begin(), objects_.end(), &obj), objects_.end());
}

void simulation_context::register_event(event& e) { events_.push_back(&e); }

void simulation_context::unregister_event(event& e) {
    events_.erase(std::remove(events_.begin(), events_.end(), &e), events_.end());
}

object* simulation_context::construction_parent() const noexcept {
    return construction_stack_.empty() ? nullptr : construction_stack_.back();
}

void simulation_context::push_construction_parent(object& obj) {
    construction_stack_.push_back(&obj);
}

void simulation_context::pop_construction_parent() {
    if (!construction_stack_.empty()) construction_stack_.pop_back();
}

object* simulation_context::find_object(const std::string& full_name) const noexcept {
    for (object* o : objects_) {
        if (o->name() == full_name) return o;
    }
    return nullptr;
}

std::vector<object*> simulation_context::hierarchy() const {
    std::vector<object*> order;
    order.reserve(objects_.size());
    // Iterative pre-order DFS from each root; children pushed in reverse so
    // they pop in construction order.
    std::vector<object*> stack;
    for (object* o : objects_) {
        if (o->parent() != nullptr) continue;
        stack.push_back(o);
        while (!stack.empty()) {
            object* top = stack.back();
            stack.pop_back();
            order.push_back(top);
            const auto& kids = top->children();
            for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
        }
    }
    return order;
}

method_process& simulation_context::register_method(std::string name,
                                                    std::function<void()> body) {
    processes_.push_back(
        std::make_unique<method_process>(std::move(name), std::move(body), *this));
    return *processes_.back();
}

void simulation_context::next_trigger(event& e) {
    util::require(running_ != nullptr, "simulation_context",
                  "next_trigger outside of a method process");
    running_->next_trigger(e);
}

void simulation_context::next_trigger(const time& delay) {
    util::require(running_ != nullptr, "simulation_context",
                  "next_trigger outside of a method process");
    running_->next_trigger(delay);
}

void simulation_context::add_elaboration_hook(std::function<void()> hook) {
    elaboration_hooks_.push_back(std::move(hook));
}

void simulation_context::elaborate() {
    if (elaborated_) return;
    util::require(construction_stack_.empty(), "simulation_context",
                  "elaborate called during module construction");
    SCA_TRACE_SPAN(&tracer_, "elaborate", "kernel");
    // 1. Hierarchy walk: a parent-before-child traversal of the object tree.
    //    Composites appear before the children they own, so structural
    //    callbacks can rely on enclosing modules being processed first.
    std::vector<object*> walk;
    {
        SCA_TRACE_SPAN(&tracer_, "elaborate.hierarchy", "kernel");
        walk = hierarchy();
    }
    // 2. Binding resolution: follow DE port-to-port forwarding chains to the
    //    terminal signals (chains may be followed in any order).
    {
        SCA_TRACE_SPAN(&tracer_, "elaborate.resolve_ports", "kernel");
        for (object* o : walk) {
            if (auto* p = dynamic_cast<port_base*>(o)) p->resolve();
        }
    }
    // 3. Structural callbacks, outermost modules first.
    {
        SCA_TRACE_SPAN(&tracer_, "elaborate.end_of_elaboration", "kernel");
        for (object* o : walk) {
            if (auto* m = dynamic_cast<module*>(o)) m->end_of_elaboration();
        }
    }
    // 4. Domain hooks: TDF binding resolution + cluster discovery and
    //    scheduling, which in turn triggers DAE setup in the views.
    {
        SCA_TRACE_SPAN(&tracer_, "elaborate.domain_hooks", "kernel");
        for (const auto& hook : elaboration_hooks_) hook();
    }
    elaborated_ = true;
}

void simulation_context::run(const time& duration) {
    elaborate();
    scheduler_.run(scheduler_.now() + duration);
}

void simulation_context::run_to_completion() {
    elaborate();
    while (!scheduler_.idle()) {
        const time next = scheduler_.next_event_time();
        if (next == time::max()) {
            // Only delta activity remains; one bounded run drains it.
            scheduler_.run(scheduler_.now());
            break;
        }
        scheduler_.run(next);
    }
}

// ------------------------------------------------------------ module_name --

module_name::module_name(const char* name) : name_(name) {
    stack_depth_at_ctor_ = simulation_context::current().construction_depth();
}

module_name::module_name(const std::string& name) : name_(name) {
    stack_depth_at_ctor_ = simulation_context::current().construction_depth();
}

module_name::~module_name() {
    auto& ctx = simulation_context::current();
    while (ctx.construction_depth() > stack_depth_at_ctor_) ctx.pop_construction_parent();
}

}  // namespace sca::de
