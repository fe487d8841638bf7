#include "kernel/event.hpp"

#include <algorithm>

#include "kernel/context.hpp"
#include "kernel/process.hpp"
#include "util/report.hpp"

namespace sca::de {

event::event(std::string name) : name_(std::move(name)) {
    context_ = &simulation_context::current();
    context_->register_event(*this);
}

event::~event() {
    // Deregister from subscribers so their destructors do not come back to
    // this (freed) event — context teardown destroys events and processes
    // in whatever order the owners were declared — and from the scheduler,
    // whose queued entries (stale ones too) would read it when popped.
    for (method_process* p : static_subscribers_) p->event_destroyed(*this);
    for (method_process* p : dynamic_subscribers_) p->event_destroyed(*this);
    context_->sched().forget_event(*this);
    context_->unregister_event(*this);
}

void event::notify() {
    // Immediate notification: fires during the current evaluation phase and
    // supersedes any pending delta/timed notification.
    cancel();
    trigger();
}

void event::notify_delta() {
    if (pending_kind_ == kind::delta) return;
    if (pending_kind_ == kind::timed) cancel();
    pending_kind_ = kind::delta;
    context_->sched().queue_delta_event(*this);
}

void event::notify(const time& delay) {
    if (delay == time::zero()) {
        notify_delta();
        return;
    }
    const time at = context_->sched().now() + delay;
    if (pending_kind_ == kind::delta) return;  // delta beats any timed notification
    if (pending_kind_ == kind::timed) {
        if (pending_time_ <= at) return;  // earlier pending notification wins
        ++generation_;                    // invalidate the later one
    }
    pending_kind_ = kind::timed;
    pending_time_ = at;
    context_->sched().queue_timed_event(*this, at);
}

void event::cancel() {
    if (pending_kind_ == kind::none) return;
    ++generation_;  // invalidates queued delta/timed entries lazily
    pending_kind_ = kind::none;
}

void event::add_static_subscriber(method_process& p) {
    if (std::find(static_subscribers_.begin(), static_subscribers_.end(), &p) ==
        static_subscribers_.end()) {
        static_subscribers_.push_back(&p);
    }
}

void event::remove_static_subscriber(method_process& p) {
    static_subscribers_.erase(
        std::remove(static_subscribers_.begin(), static_subscribers_.end(), &p),
        static_subscribers_.end());
}

void event::add_dynamic_subscriber(method_process& p) {
    dynamic_subscribers_.push_back(&p);
}

void event::remove_dynamic_subscriber(method_process& p) {
    dynamic_subscribers_.erase(
        std::remove(dynamic_subscribers_.begin(), dynamic_subscribers_.end(), &p),
        dynamic_subscribers_.end());
}

void event::restore_timed(const time& at) {
    util::require(pending_kind_ == kind::none, "snapshot",
                  "restore_timed on an event with a pending notification");
    pending_kind_ = kind::timed;
    pending_time_ = at;
    context_->sched().queue_timed_event(*this, at);
}

void event::trigger() {
    pending_kind_ = kind::none;
    scheduler& sched = context_->sched();
    for (method_process* p : static_subscribers_) {
        if (!p->dynamically_waiting()) sched.make_runnable(*p);
    }
    // Dynamic subscribers are one-shot; firing clears their wait state.
    firing_.swap(dynamic_subscribers_);
    for (method_process* p : firing_) {
        p->dynamic_trigger_fired();
        sched.make_runnable(*p);
    }
    firing_.clear();
}

}  // namespace sca::de
