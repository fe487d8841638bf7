// Simulation events with immediate, delta, and timed notification, matching
// SystemC notification semantics (at most one pending notification per event;
// an earlier notification overrides a later pending one).
#ifndef SCA_KERNEL_EVENT_HPP
#define SCA_KERNEL_EVENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace sca::de {

class method_process;
class scheduler;
class simulation_context;

class event {
public:
    /// Creates an event registered with the current simulation context.
    explicit event(std::string name = "event");
    ~event();

    event(const event&) = delete;
    event& operator=(const event&) = delete;

    /// Immediate notification: sensitive processes become runnable in the
    /// current evaluation phase.
    void notify();

    /// Delta notification: processes run in the next delta cycle.
    void notify_delta();

    /// Timed notification after `delay`. A pending notification at an earlier
    /// time wins; a pending later one is cancelled and replaced.
    void notify(const time& delay);

    /// Cancel any pending (delta or timed) notification.
    void cancel();

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// True if a delta or timed notification is pending.
    [[nodiscard]] bool pending() const noexcept { return pending_kind_ != kind::none; }

    // --- used by processes and the scheduler -------------------------------
    void add_static_subscriber(method_process& p);
    void remove_static_subscriber(method_process& p);
    void add_dynamic_subscriber(method_process& p);
    void remove_dynamic_subscriber(method_process& p);

    /// Fire: make subscribers runnable. Called by the scheduler (delta/timed)
    /// or directly by notify() (immediate).
    void trigger();

    /// Generation counter validates timed queue entries after cancel().
    [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

    // --- checkpoint/restore (core/snapshot) --------------------------------
    /// Ordered dynamic-subscriber list.  trigger() fires dynamic subscribers
    /// in subscription order, so a snapshot must record — and restore must
    /// replay — exactly this sequence.
    [[nodiscard]] const std::vector<method_process*>& dynamic_subscribers() const noexcept {
        return dynamic_subscribers_;
    }

    /// Re-establish a pending timed notification at absolute time `at`
    /// (snapshot restore only; the event must be idle).
    void restore_timed(const time& at);

private:
    enum class kind { none, delta, timed };

    std::string name_;
    simulation_context* context_ = nullptr;
    std::vector<method_process*> static_subscribers_;
    std::vector<method_process*> dynamic_subscribers_;
    // trigger() swaps dynamic_subscribers_ into this list to fire it, so
    // both keep their capacity and re-subscribing does not allocate.
    // Empty outside trigger().
    std::vector<method_process*> firing_;
    kind pending_kind_ = kind::none;
    time pending_time_;
    std::uint64_t generation_ = 0;
};

}  // namespace sca::de

#endif  // SCA_KERNEL_EVENT_HPP
