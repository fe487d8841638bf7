// The discrete-event scheduler: evaluate / update / delta-notify cycles and
// timed-event advance, following the SystemC simulation semantics the paper
// builds on (§3 "SystemC-AMS must be an extension of the SystemC language").
#ifndef SCA_KERNEL_SCHEDULER_HPP
#define SCA_KERNEL_SCHEDULER_HPP

#include <chrono>
#include <cstdint>
#include <vector>

#include "kernel/time.hpp"
#include "util/telemetry.hpp"

namespace sca::util {
class event_tracer;
}  // namespace sca::util

namespace sca::de {

class event;
class method_process;
class signal_base;

/// A client of the pre-timestep stage (SystemC's SC_PRE_TIMESTEP stage
/// callback), requested per instant via scheduler::request_pre_timestep().
class pre_timestep_callback {
public:
    /// Runs once the instant that requested it has settled.
    virtual void pre_timestep() = 0;

protected:
    ~pre_timestep_callback() = default;
};

class scheduler {
public:
    /// `tracer` records the kernel.run span; it must outlive the scheduler.
    explicit scheduler(util::event_tracer& tracer) noexcept : tracer_(&tracer) {}
    scheduler(const scheduler&) = delete;
    scheduler& operator=(const scheduler&) = delete;

    /// The metrics collector body simulation_context registers: append
    /// "kernel.delta_cycles", "kernel.timed_notifications" and the gauges
    /// "kernel.pacing.drift_s"/"max_drift_s" to `out`.  The counts are plain
    /// members written on the hot path (an atomic RMW per delta cycle costs
    /// several percent on the per-sample TDF path).
    void report_metrics(util::metrics_snapshot& out) const;

    [[nodiscard]] const time& now() const noexcept { return now_; }
    [[nodiscard]] std::uint64_t delta_count() const noexcept;

    /// Cumulative timed notifications queued since construction/reset().
    /// A cheap proxy for DE-kernel interaction volume: the TDF layer uses it
    /// in benches/tests to show that batching (static clusters) and period
    /// stretching (dynamic clusters slowing themselves down) both shrink the
    /// kernel traffic, not just the module firing count.
    [[nodiscard]] std::uint64_t timed_notification_count() const noexcept;

    // --- called by events / signals / processes ----------------------------
    void make_runnable(method_process& p);
    void queue_delta_event(event& e);
    void queue_timed_event(event& e, const time& at);
    /// A process's own wake (method_process::next_trigger with a delay): one
    /// queue entry naming the process, live while the process's wake
    /// generation is unchanged.  Counts as a timed notification; the delta
    /// form wakes in the next delta cycle.
    void queue_timed_wake(method_process& p, const time& at);
    void queue_delta_wake(method_process& p);
    /// Drop every queued entry naming `e` (the event is being destroyed).
    void forget_event(const event& e);
    void request_update(signal_base& s);

    /// Pre-timestep stage: call `cb` once the current instant (or the
    /// initialization phase) has settled, before time advances.  Callbacks
    /// requested during one instant run last-requested first; activity they
    /// create runs the evaluate/update loop again, then any callbacks
    /// requested meanwhile.  TDF clusters plan batches and re-arm here, where
    /// every same-instant process has run and armed its next timed event.
    void request_pre_timestep(pre_timestep_callback& cb) { pre_timestep_.push_back(&cb); }

    /// Register a process for the initialization phase.
    void register_process(method_process& p);
    void unregister_process(method_process& p);

    // --- simulation control -------------------------------------------------
    /// Run initialization then advance until `end` (inclusive) or until no
    /// activity remains. Returns the time reached.
    time run(const time& end);

    /// True when no timed events, delta events, or runnables remain.
    [[nodiscard]] bool idle() const noexcept;

    /// Time of the next pending timed event (time::max() if none).
    [[nodiscard]] time next_event_time() const noexcept;

    /// Like next_event_time(), but skipping stale entries and the wakes of
    /// processes marked as batch re-arms (method_process::mark_batch_rearm):
    /// TDF batch planning ignores the re-arms of independent peer clusters.
    [[nodiscard]] time next_event_time_ignoring_rearms() const noexcept;

    /// End bound of the in-progress (or most recent) run() call; time::max()
    /// before the first run.  The TDF synchronization layer uses it to keep
    /// batched cluster execution from running past the requested stop time.
    [[nodiscard]] const time& run_end() const noexcept { return run_end_; }

    // --- wall-clock pacing ---------------------------------------------------
    /// Opt-in soft-real-time mode (hardware-in-the-loop sessions): before
    /// advancing simulated time, sleep until wall time has caught up, with
    /// `real_time_factor` simulated seconds passing per wall second (1.0 =
    /// real time, 10.0 = 10x faster than real time).  <= 0 disables pacing
    /// (the default).  Calling set_pacing re-anchors the sim-time/wall-time
    /// correspondence at the current instant, so a paused-and-resumed
    /// session does not sprint to catch up over the paused interval.
    void set_pacing(double real_time_factor) noexcept;
    [[nodiscard]] double pacing_factor() const noexcept { return pacing_; }

    /// Wall-clock lag observed at the most recent paced advance, in seconds
    /// (0 while the kernel keeps up — i.e. it slept — positive when the
    /// model is too slow to hold the requested factor).
    [[nodiscard]] double pacing_drift() const noexcept;
    /// Largest lag observed since pacing was (re-)enabled.
    [[nodiscard]] double pacing_max_drift() const noexcept;

    // --- checkpoint/restore (core/snapshot) ----------------------------------
    /// Registered processes in registration order — the stable identity a
    /// snapshot uses for processes and their timed wakes (model construction
    /// and elaboration register processes deterministically).
    [[nodiscard]] const std::vector<method_process*>& processes() const noexcept {
        return all_processes_;
    }

    /// A live timed-queue entry: the notification of `ev`, or, when `ev` is
    /// null, the timed wake of `proc`.
    struct pending_timed {
        time at;
        const event* ev;
        const method_process* proc;
    };

    /// Live timed-queue entries in firing order (stale generations and
    /// cancelled notifications skipped).  Same-time entries keep their
    /// arming order — the property restore must reproduce so that
    /// same-instant notifications and wakes fire in the original order.
    [[nodiscard]] std::vector<pending_timed> pending_timed_events() const;

    /// True once the initialization phase has run (i.e. run() was called at
    /// least once).  A snapshot must capture an initialized scheduler:
    /// restore marks the rebuilt one initialized, so saving a never-run
    /// context would silently skip initialization after resume.
    [[nodiscard]] bool initialized() const noexcept { return initialized_; }

    /// True when the current instant is fully evaluated: no runnable
    /// process, no queued signal update, no pending delta notification.
    /// run() always returns at a settled point; the snapshot writer asserts
    /// it rather than trying to serialize mid-instant evaluation state.
    [[nodiscard]] bool settled() const noexcept {
        return runnable_.empty() && delta_queue_.empty() && update_queue_.empty() &&
               pre_timestep_.empty();
    }

    /// Snapshot restore, step one: adopt the saved simulation clock on a
    /// context that has never run.  Marks the scheduler initialized so the
    /// next run() skips the initialization phase — the restored wait states
    /// stand in for it.
    void begin_restore(const time& now);

    /// Snapshot restore, final step: overlay the counters captured at save
    /// time (replaying timed notifications in between bumped them).
    void finish_restore(std::uint64_t delta_count, std::uint64_t timed_notifications);

    void reset();

private:
    void initialization_phase();
    /// One evaluate/update/delta sequence; returns true if any process ran.
    void evaluate_update_loop();
    /// evaluate_update_loop(), then the pre-timestep stage, until neither
    /// has work left at the current instant.
    void settle();
    /// Sleep until wall time reaches sim time `t` under the pacing factor;
    /// records drift when the kernel is already late.  No-op when pacing is
    /// off or `t` is the time::max() "never" marker.
    void pace_to(const time& t);
    void count_timed_notification() noexcept;
    void count_delta_cycle() noexcept;
    void record_drift(double drift, bool is_new_max) noexcept;

    time now_;
    time run_end_ = time::max();
    std::uint64_t delta_count_ = 0;
    std::uint64_t timed_notifications_ = 0;
    util::event_tracer* tracer_;
    bool initialized_ = false;

    double pacing_ = 0.0;
    double pacing_drift_ = 0.0;
    double pacing_max_drift_ = 0.0;
    bool pace_anchor_valid_ = false;
    time pace_anchor_sim_;
    std::chrono::steady_clock::time_point pace_anchor_wall_;

    /// What a queued entry wakes: the notification of `ev`, or, when `ev` is
    /// null, the dynamic wait of `proc`.  `generation` is the event's or the
    /// process's generation when queued; cancelling the notification, or
    /// ending the wait, bumps it.
    struct wake_ref {
        event* ev;
        method_process* proc;
        std::uint64_t generation;
    };
    void queue_timed(const time& at, const wake_ref& what);
    /// Make the target of a live entry's wake runnable.
    void fire(const wake_ref& w);

    std::vector<method_process*> all_processes_;
    // A LIFO stack: within one evaluation phase the last process made
    // runnable runs first.
    std::vector<method_process*> runnable_;
    // Delta notifications and delta wakes in queueing order.  An event entry
    // fires while the event is pending, a process entry while its
    // generation is current.
    std::vector<wake_ref> delta_queue_;
    std::vector<signal_base*> update_queue_;
    // evaluate_update_loop() swaps the two queues above with these, so every
    // vector keeps its capacity and a steady-state delta cycle allocates
    // nothing.  Empty outside the loop.
    std::vector<wake_ref> delta_scratch_;
    std::vector<signal_base*> update_scratch_;
    // Pre-timestep requests of the current instant: a stack settle() pops.
    std::vector<pre_timestep_callback*> pre_timestep_;

    struct timed_entry {
        time at;
        std::uint64_t seq;  ///< arming order; breaks ties between equal `at`
        wake_ref what;

        /// Still the event's pending notification or the process's current
        /// wait (not cancelled, superseded or already fired).
        [[nodiscard]] bool live() const noexcept;
        /// Heap order: true when this entry fires after `o`.
        [[nodiscard]] bool fires_after(const timed_entry& o) const noexcept {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };
    /// Binary min-heap on (at, seq): same-instant notifications and wakes
    /// fire in the order they were armed.  Stale entries stay until popped
    /// and are skipped by their generation.
    std::vector<timed_entry> timed_queue_;
    std::uint64_t timed_seq_ = 0;
};

}  // namespace sca::de

#endif  // SCA_KERNEL_SCHEDULER_HPP
