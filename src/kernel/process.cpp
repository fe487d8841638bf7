#include "kernel/process.hpp"

#include <algorithm>
#include <utility>

#include "kernel/context.hpp"
#include "util/report.hpp"

namespace sca::de {

method_process::method_process(std::string name, std::function<void()> body,
                               simulation_context& ctx)
    : name_(std::move(name)), body_(std::move(body)), context_(&ctx) {
    util::require(static_cast<bool>(body_), name_, "method body must not be null");
    context_->sched().register_process(*this);
}

method_process::~method_process() {
    for (event* e : static_sensitivity_) e->remove_static_subscriber(*this);
    clear_dynamic_subscriptions();
    context_->sched().unregister_process(*this);
}

void method_process::make_sensitive(event& e) {
    static_sensitivity_.push_back(&e);
    e.add_static_subscriber(*this);
}

void method_process::execute() {
    method_process* previous = context_->running_process();
    context_->set_running_process(this);
    trigger_requested_ = false;
    ++activations_;
    body_();
    context_->set_running_process(previous);
    // If the body did not request a dynamic trigger, static sensitivity
    // applies again (any previous dynamic wait was consumed by this run).
    if (!trigger_requested_) {
        dynamic_waiting_ = false;
    }
}

void method_process::next_trigger(event& e) {
    clear_dynamic_subscriptions();
    e.add_dynamic_subscriber(*this);
    dynamic_events_.push_back(&e);
    dynamic_waiting_ = true;
    trigger_requested_ = true;
}

void method_process::next_trigger(const time& delay) {
    clear_dynamic_subscriptions();
    arm_timeout(delay);
    dynamic_waiting_ = true;
    trigger_requested_ = true;
}

void method_process::next_trigger(const time& delay, event& e) {
    clear_dynamic_subscriptions();
    arm_timeout(delay);
    e.add_dynamic_subscriber(*this);
    dynamic_events_.push_back(&e);
    dynamic_waiting_ = true;
    trigger_requested_ = true;
}

void method_process::arm_timeout(const time& delay) {
    scheduler& sched = context_->sched();
    if (delay == time::zero()) {
        sched.queue_delta_wake(*this);
    } else {
        sched.queue_timed_wake(*this, sched.now() + delay);
    }
}

void method_process::event_destroyed(event& e) {
    static_sensitivity_.erase(
        std::remove(static_sensitivity_.begin(), static_sensitivity_.end(), &e),
        static_sensitivity_.end());
    dynamic_events_.erase(
        std::remove(dynamic_events_.begin(), dynamic_events_.end(), &e),
        dynamic_events_.end());
}

void method_process::dynamic_trigger_fired() {
    // One of the dynamic triggers fired; withdraw from all the others so this
    // activation is one-shot.
    clear_dynamic_subscriptions();
    dynamic_waiting_ = false;
}

void method_process::retire() {
    for (event* e : static_sensitivity_) e->remove_static_subscriber(*this);
    static_sensitivity_.clear();
    clear_dynamic_subscriptions();
    dynamic_waiting_ = false;
    context_->sched().unregister_process(*this);
    // The body's captures belong to the destroyed module.
    body_ = nullptr;
}

void method_process::clear_dynamic_subscriptions() {
    for (event* e : dynamic_events_) e->remove_dynamic_subscriber(*this);
    dynamic_events_.clear();
    ++wake_generation_;
}

}  // namespace sca::de
