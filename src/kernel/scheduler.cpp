#include "kernel/scheduler.hpp"

#include <algorithm>
#include <thread>

#include "kernel/event.hpp"
#include "kernel/process.hpp"
#include "kernel/signal.hpp"
#include "util/report.hpp"
#include "util/trace_export.hpp"

namespace sca::de {

namespace {
/// The std::*_heap comparator that makes timed_queue_ a min-heap.
constexpr auto min_heap_order = [](const auto& a, const auto& b) { return a.fires_after(b); };
}  // namespace

bool scheduler::timed_entry::live() const noexcept {
    if (what.ev == nullptr) return what.generation == what.proc->wake_generation();
    return what.generation == what.ev->generation() && what.ev->pending();
}

void scheduler::fire(const wake_ref& w) {
    if (w.ev != nullptr) {
        w.ev->trigger();
        return;
    }
    w.proc->dynamic_trigger_fired();
    make_runnable(*w.proc);
}

void scheduler::report_metrics(util::metrics_snapshot& out) const {
    out.push_back({.name = "kernel.delta_cycles", .count = delta_count_});
    out.push_back({.name = "kernel.timed_notifications", .count = timed_notifications_});
    out.push_back({.name = "kernel.pacing.drift_s",
                   .kind = util::metric_value::metric_kind::gauge,
                   .value = pacing_drift_});
    out.push_back({.name = "kernel.pacing.max_drift_s",
                   .kind = util::metric_value::metric_kind::gauge,
                   .value = pacing_max_drift_});
}

std::uint64_t scheduler::delta_count() const noexcept { return delta_count_; }

std::uint64_t scheduler::timed_notification_count() const noexcept {
    return timed_notifications_;
}

double scheduler::pacing_drift() const noexcept { return pacing_drift_; }

double scheduler::pacing_max_drift() const noexcept { return pacing_max_drift_; }

void scheduler::count_timed_notification() noexcept { ++timed_notifications_; }

void scheduler::count_delta_cycle() noexcept { ++delta_count_; }

void scheduler::record_drift(double drift, bool is_new_max) noexcept {
    pacing_drift_ = drift;
    if (is_new_max) {
        pacing_max_drift_ = drift;
    }
}

void scheduler::make_runnable(method_process& p) {
    if (p.queued()) return;
    p.set_queued(true);
    runnable_.push_back(&p);
}

void scheduler::queue_delta_event(event& e) {
    delta_queue_.push_back({&e, nullptr, e.generation()});
}

void scheduler::queue_timed_event(event& e, const time& at) {
    queue_timed(at, {&e, nullptr, e.generation()});
}

void scheduler::queue_timed_wake(method_process& p, const time& at) {
    queue_timed(at, {nullptr, &p, p.wake_generation()});
}

void scheduler::queue_timed(const time& at, const wake_ref& what) {
    util::require(at >= now_, "scheduler", "timed notification in the past");
    count_timed_notification();
    timed_queue_.push_back({at, timed_seq_++, what});
    std::push_heap(timed_queue_.begin(), timed_queue_.end(), min_heap_order);
}

void scheduler::queue_delta_wake(method_process& p) {
    delta_queue_.push_back({nullptr, &p, p.wake_generation()});
}

void scheduler::forget_event(const event& e) {
    std::erase_if(delta_queue_, [&e](const wake_ref& w) { return w.ev == &e; });
    if (std::erase_if(timed_queue_,
                      [&e](const timed_entry& entry) { return entry.what.ev == &e; }) != 0) {
        std::make_heap(timed_queue_.begin(), timed_queue_.end(), min_heap_order);
    }
}

void scheduler::request_update(signal_base& s) { update_queue_.push_back(&s); }

void scheduler::register_process(method_process& p) { all_processes_.push_back(&p); }

void scheduler::unregister_process(method_process& p) {
    all_processes_.erase(std::remove(all_processes_.begin(), all_processes_.end(), &p),
                         all_processes_.end());
    runnable_.erase(std::remove(runnable_.begin(), runnable_.end(), &p), runnable_.end());
}

bool scheduler::idle() const noexcept {
    return runnable_.empty() && delta_queue_.empty() && update_queue_.empty() &&
           timed_queue_.empty();
}

time scheduler::next_event_time() const noexcept {
    if (timed_queue_.empty()) return time::max();
    return timed_queue_.front().at;
}

time scheduler::next_event_time_ignoring_rearms() const noexcept {
    const auto eligible = [](const timed_entry& entry) {
        return (entry.what.ev != nullptr || !entry.what.proc->batch_rearm()) && entry.live();
    };
    if (timed_queue_.empty()) return time::max();
    // The common case is O(1): the heap's front is the earliest entry.
    if (eligible(timed_queue_.front())) return timed_queue_.front().at;
    time earliest = time::max();
    for (const timed_entry& entry : timed_queue_) {
        if (entry.at < earliest && eligible(entry)) earliest = entry.at;
    }
    return earliest;
}

void scheduler::initialization_phase() {
    // All method processes run once at time zero unless dont_initialize().
    for (method_process* p : all_processes_) {
        if (p->initialize()) make_runnable(*p);
    }
    initialized_ = true;
}

void scheduler::evaluate_update_loop() {
    while (!runnable_.empty() || !update_queue_.empty() || !delta_queue_.empty()) {
        // Evaluation phase: run every runnable process. Processes made
        // runnable during this phase (immediate notification) run in the
        // same phase.
        while (!runnable_.empty()) {
            method_process* p = runnable_.back();
            runnable_.pop_back();
            p->set_queued(false);
            p->execute();
        }
        // Update phase: apply deferred signal writes.
        update_scratch_.swap(update_queue_);
        for (signal_base* s : update_scratch_) s->update();
        update_scratch_.clear();
        // Delta notification phase.
        delta_scratch_.swap(delta_queue_);
        bool any = false;
        for (const wake_ref& w : delta_scratch_) {
            if (w.ev != nullptr ? w.ev->pending()
                                : w.generation == w.proc->wake_generation()) {
                fire(w);
                any = true;
            }
        }
        delta_scratch_.clear();
        if (any || !runnable_.empty()) count_delta_cycle();
    }
}

void scheduler::settle() {
    do {
        evaluate_update_loop();
        while (!pre_timestep_.empty()) {
            pre_timestep_callback* cb = pre_timestep_.back();
            pre_timestep_.pop_back();
            cb->pre_timestep();
        }
    } while (!settled());
}

void scheduler::set_pacing(double real_time_factor) noexcept {
    pacing_ = real_time_factor > 0.0 ? real_time_factor : 0.0;
    // Re-anchor at the next paced advance: wall time spent while pacing was
    // off (pause, reconfiguration) must not count as accumulated lag.
    pace_anchor_valid_ = false;
    pacing_max_drift_ = 0.0;
    record_drift(0.0, true);
}

void scheduler::pace_to(const time& t) {
    if (pacing_ <= 0.0 || t == time::max()) return;
    const auto wall_now = std::chrono::steady_clock::now();
    if (!pace_anchor_valid_) {
        pace_anchor_valid_ = true;
        pace_anchor_sim_ = now_;
        pace_anchor_wall_ = wall_now;
    }
    const double wall_offset_s = (t - pace_anchor_sim_).to_seconds() / pacing_;
    const auto target =
        pace_anchor_wall_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(wall_offset_s));
    if (wall_now < target) {
        std::this_thread::sleep_until(target);
        record_drift(0.0, false);
    } else {
        const double drift = std::chrono::duration<double>(wall_now - target).count();
        record_drift(drift, drift > pacing_max_drift_);
    }
}

time scheduler::run(const time& end) {
    SCA_TRACE_SPAN_T(tracer_, "kernel.run", "kernel", now_.to_seconds());
    run_end_ = end;
    if (!initialized_) {
        initialization_phase();
        settle();
    }
    while (!timed_queue_.empty()) {
        const time next = timed_queue_.front().at;
        if (next > end) break;
        pace_to(next);
        now_ = next;
        // Pop and trigger every live notification at this time point, in the
        // order the notifications were made.
        while (!timed_queue_.empty() && timed_queue_.front().at == now_) {
            std::pop_heap(timed_queue_.begin(), timed_queue_.end(), min_heap_order);
            const timed_entry entry = timed_queue_.back();
            timed_queue_.pop_back();
            if (entry.live()) fire(entry.what);
        }
        settle();
    }
    if (now_ < end) {
        // Quiet tail: no events up to `end`, but a paced session still owes
        // the wall clock the remaining interval.
        pace_to(end);
        now_ = end;
    }
    return now_;
}

std::vector<scheduler::pending_timed> scheduler::pending_timed_events() const {
    std::vector<timed_entry> entries;
    for (const timed_entry& entry : timed_queue_) {
        if (entry.live()) entries.push_back(entry);
    }
    // Firing order is (at, seq), the reverse of the heap comparator.
    std::sort(entries.begin(), entries.end(),
              [](const timed_entry& a, const timed_entry& b) { return b.fires_after(a); });
    std::vector<pending_timed> out;
    out.reserve(entries.size());
    for (const timed_entry& entry : entries) {
        out.push_back({entry.at, entry.what.ev, entry.what.proc});
    }
    return out;
}

void scheduler::begin_restore(const time& now) {
    util::require(!initialized_, "snapshot",
                  "state restore requires a context that has never run");
    util::require(settled() && timed_queue_.empty(),
                  "snapshot", "state restore into a scheduler with pending activity");
    now_ = now;
    initialized_ = true;
}

void scheduler::finish_restore(std::uint64_t delta_count,
                               std::uint64_t timed_notifications) {
    delta_count_ = delta_count;
    timed_notifications_ = timed_notifications;
}

void scheduler::reset() {
    now_ = time::zero();
    run_end_ = time::max();
    delta_count_ = 0;
    timed_notifications_ = 0;
    initialized_ = false;
    pacing_ = 0.0;
    pacing_max_drift_ = 0.0;
    record_drift(0.0, true);
    pace_anchor_valid_ = false;
    runnable_.clear();
    delta_queue_.clear();
    update_queue_.clear();
    pre_timestep_.clear();
    timed_queue_.clear();
    timed_seq_ = 0;
}

}  // namespace sca::de
