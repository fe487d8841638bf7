#include "util/trace_export.hpp"

#include <atomic>
#include <ostream>

namespace sca::util {

namespace {

// Lane ids label concurrent recorders (kernel worker threads, server session
// threads) as separate Perfetto tracks.  Process-global on purpose: a lane
// identifies a thread, not a context.
std::uint32_t this_lane() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t lane = next.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

}  // namespace

void event_tracer::enable() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    dropped_.store(0, std::memory_order_relaxed);
    epoch_ns_ = now_ns();
    enabled_.store(true, std::memory_order_relaxed);
}

void event_tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void event_tracer::record(const char* name, const char* cat, std::int64_t start_ns,
                          std::int64_t dur_ns, double sim_time) {
    if (!enabled()) return;
    const std::uint32_t lane = this_lane();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= capacity_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    trace_event ev;
    ev.name = name;
    ev.cat = cat;
    ev.start_ns = start_ns;
    ev.dur_ns = dur_ns;
    ev.lane = lane;
    ev.sim_time = sim_time;
    events_.push_back(std::move(ev));
}

std::size_t event_tracer::event_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void event_tracer::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    dropped_.store(0, std::memory_order_relaxed);
}

std::vector<trace_event> event_tracer::events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void event_tracer::write_chrome_json(std::ostream& os) const {
    std::vector<trace_event> evs;
    std::int64_t epoch = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        evs = events_;
        epoch = epoch_ns_;
    }
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const trace_event& ev : evs) {
        if (!first) os << ',';
        first = false;
        // ts/dur are fractional microseconds in the trace_event format.
        const double ts_us = static_cast<double>(ev.start_ns - epoch) / 1000.0;
        const double dur_us = static_cast<double>(ev.dur_ns) / 1000.0;
        os << "{\"name\":";
        write_json_string(os, ev.name);
        os << ",\"cat\":";
        write_json_string(os, ev.cat);
        os << ",\"ph\":\"X\",\"ts\":" << fmt_double(ts_us) << ",\"dur\":" << fmt_double(dur_us)
           << ",\"pid\":1,\"tid\":" << ev.lane;
        if (ev.sim_time >= 0.0) os << ",\"args\":{\"t_sim\":" << fmt_double(ev.sim_time) << '}';
        os << '}';
    }
    os << "],\"displayTimeUnit\":\"ms\"}";
}

}  // namespace sca::util
