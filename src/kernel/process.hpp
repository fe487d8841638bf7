// Method processes: the kernel's unit of concurrent behavior.
//
// A method process is a callback executed to completion on every activation
// (the SC_METHOD style).  Activation comes from its static sensitivity list
// or from a one-shot dynamic trigger requested with next_trigger(); a dynamic
// trigger overrides static sensitivity for exactly one activation, matching
// SystemC semantics.
#ifndef SCA_KERNEL_PROCESS_HPP
#define SCA_KERNEL_PROCESS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/event.hpp"
#include "kernel/time.hpp"

namespace sca::de {

class simulation_context;

class method_process {
public:
    method_process(std::string name, std::function<void()> body, simulation_context& ctx);
    ~method_process();

    method_process(const method_process&) = delete;
    method_process& operator=(const method_process&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Add an event to the static sensitivity list.
    void make_sensitive(event& e);

    /// Suppress the initial activation at simulation start.
    void dont_initialize() noexcept { dont_initialize_ = true; }
    [[nodiscard]] bool initialize() const noexcept { return !dont_initialize_; }

    /// Execute the body once (scheduler only). Sets the running-process
    /// context so next_trigger() calls inside the body land here.
    void execute();

    /// One-shot dynamic triggers (normally called via context::next_trigger).
    /// A delay queues one scheduler entry naming this process (a zero delay
    /// wakes it in the next delta cycle).
    void next_trigger(event& e);
    void next_trigger(const time& delay);
    void next_trigger(const time& delay, event& e);  // timeout or event

    [[nodiscard]] bool dynamically_waiting() const noexcept { return dynamic_waiting_; }

    /// Bumped whenever a dynamic wait ends: it fires, a newer next_trigger
    /// replaces it, or the process retires.  A queued wake carries the
    /// generation it was armed under and is stale once this moves on.
    [[nodiscard]] std::uint64_t wake_generation() const noexcept { return wake_generation_; }

    /// Marks the process of a TDF cluster that writes no DE signal.  Such
    /// clusters cannot observe one another, so batch planning ignores their
    /// wakes (scheduler::next_event_time_ignoring_rearms).
    void mark_batch_rearm() noexcept { batch_rearm_ = true; }
    [[nodiscard]] bool batch_rearm() const noexcept { return batch_rearm_; }

    /// Clear dynamic wait state when a dynamic trigger fires.
    void dynamic_trigger_fired();

    /// Withdraw for good (the owning module is being destroyed): drop every
    /// static and dynamic subscription and any queued wake, and leave the
    /// scheduler, so the body never runs again.  The context still owns the
    /// object until it is torn down.
    void retire();

    /// An event this process subscribes to is being destroyed: drop every
    /// reference so the process destructor does not unsubscribe from freed
    /// memory (events and processes may be torn down in either order).
    void event_destroyed(event& e);

    /// Scheduler bookkeeping: avoid double-queueing in one evaluation phase.
    [[nodiscard]] bool queued() const noexcept { return queued_; }
    void set_queued(bool q) noexcept { queued_ = q; }

    /// Number of completed activations (diagnostics, benches).
    [[nodiscard]] std::uint64_t activation_count() const noexcept { return activations_; }

    // --- checkpoint/restore (core/snapshot) --------------------------------
    /// Ordered events this process is dynamically waiting on.
    [[nodiscard]] const std::vector<event*>& dynamic_events() const noexcept {
        return dynamic_events_;
    }

    /// Restore-only mutators replaying a captured dynamic wait.  The event
    /// side re-adds the actual subscriptions (its subscriber order is what
    /// trigger() replays); this side only mirrors the bookkeeping.
    void restore_dynamic_wait(bool waiting) noexcept { dynamic_waiting_ = waiting; }
    void restore_dynamic_event(event& e) { dynamic_events_.push_back(&e); }
    void restore_activation_count(std::uint64_t n) noexcept { activations_ = n; }

private:
    /// End the current dynamic wait: unsubscribe and stale any queued wake.
    void clear_dynamic_subscriptions();
    /// Queue this process's wake `delay` from now.
    void arm_timeout(const time& delay);

    std::string name_;
    std::function<void()> body_;
    simulation_context* context_;
    std::vector<event*> static_sensitivity_;
    std::vector<event*> dynamic_events_;  // events we are dynamically waiting on
    std::uint64_t wake_generation_ = 0;
    bool dynamic_waiting_ = false;
    bool trigger_requested_ = false;  // next_trigger called during current execute()
    bool dont_initialize_ = false;
    bool queued_ = false;
    bool batch_rearm_ = false;
    std::uint64_t activations_ = 0;
};

}  // namespace sca::de

#endif  // SCA_KERNEL_PROCESS_HPP
