// Metrics of one simulation_context: the values its owners report when
// metrics are collected, the histogram timers recorded live, and the one
// JSON writer every export shares.
//
// Design contract:
//  - A counter or gauge is a plain member of the object that counts it (the
//    scheduler, a TDF module, a cluster, a solver).  Its owner reports it
//    through a collector when metrics are collected (de::simulation_context::
//    add_metrics_collector), so a hot-path increment is one ordinary write and
//    nothing else holds a copy.
//  - The registry keeps only what is recorded live: histogram timers,
//    lock-free relaxed atomics per sample.  Only the scoped-timer and
//    trace-span *macros* compile out (SCA_TELEMETRY_ENABLED=0, CMake option
//    SCA_ENABLE_TELEMETRY=OFF), because wall-clock reads in hot loops are the
//    one cost that can matter.
//  - Snapshots are deterministic in content: entries sort by name, and the
//    wire snapshot carries only counters and gauges — values derived from
//    simulation state, reproducible across backends and worker counts.
//    Histograms accumulate wall-clock time and stay host-local.
//
// Naming convention (docs/observability.md): dot-separated lowercase paths,
// "<layer>.<thing>[.<aspect>]" — e.g. "kernel.timed_notifications",
// "tdf.schedule_cache.hits", "solver.numeric_factorizations",
// "time.snapshot.save_s" (histogram timers end in a unit suffix).
#ifndef SCA_UTIL_TELEMETRY_HPP
#define SCA_UTIL_TELEMETRY_HPP

// Compile-time gate for the timing macros below.  The registry itself is
// always available; only wall-clock instrumentation sites vanish.
#ifndef SCA_TELEMETRY_ENABLED
#define SCA_TELEMETRY_ENABLED 1
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sca::util {

/// Value accumulator: count / sum / min / max, lock-free (min/max via CAS).
/// Timer histograms record seconds; record() accepts any double series.
class histogram {
public:
    void record(double v) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double min() const noexcept;  ///< 0 when empty
    [[nodiscard]] double max() const noexcept;  ///< 0 when empty
    [[nodiscard]] double mean() const noexcept {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : sum() / static_cast<double>(n);
    }

private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/// One exported metric sample — the flat form collectors report and
/// snapshots, exports and the wire protocol share.  A collector reports a
/// counter as {.name, .count} and a gauge as {.name, .kind = gauge, .value}.
struct metric_value {
    enum class metric_kind : std::uint8_t { counter = 0, gauge = 1, histogram = 2 };

    std::string name;
    metric_kind kind = metric_kind::counter;
    std::uint64_t count = 0;  ///< counter value / histogram sample count
    double value = 0.0;       ///< gauge value / histogram sum
    double min = 0.0;         ///< histogram only
    double max = 0.0;         ///< histogram only

    bool operator==(const metric_value&) const = default;
};

using metrics_snapshot = std::vector<metric_value>;

/// Per-simulation_context registry of the histograms recorded live.
/// Resolution is mutex-protected; the returned references stay valid for the
/// registry's lifetime, so a site resolves once and records lock-free after.
class metrics_registry {
public:
    metrics_registry() = default;
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;

    /// Find-or-create by name.
    histogram& get_histogram(const std::string& name);

    /// Every histogram, sorted by name.
    [[nodiscard]] metrics_snapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, histogram> histograms_;  // nodes: stable references
};

/// The one metrics export: {"metrics":[{name,kind,...}, ...]}.
void write_metrics_json(std::ostream& os, const metrics_snapshot& snap);

// ------------------------------------------------------------ JSON writer --

/// `v` as locale-independent text with 17 significant digits, so every
/// double round-trips: the number format of every JSON and CSV export.
[[nodiscard]] std::string fmt_double(double v);

/// `s` as a quoted JSON string: quotes, backslashes and control characters
/// escaped.
void write_json_string(std::ostream& os, std::string_view s);

// ------------------------------------------------------------ scoped timer --

/// RAII wall-clock timer recording seconds into a histogram.  Null histogram
/// = disabled (records nothing); the macro form compiles out entirely.
class scoped_timer {
public:
    explicit scoped_timer(histogram* h) noexcept
        : h_(h), t0_(h ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}) {}
    ~scoped_timer() {
        if (h_ == nullptr) return;
        const auto dt = std::chrono::steady_clock::now() - t0_;
        h_->record(std::chrono::duration<double>(dt).count());
    }
    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

private:
    histogram* h_;
    std::chrono::steady_clock::time_point t0_;
};

}  // namespace sca::util

// Compile-out-able scoped timer for hot loops: `SCA_SCOPED_TIMER(&hist)`
// records the enclosing scope's wall time into `hist` (a histogram*; may be
// null at runtime for a cheap dynamic disable).  With telemetry compiled out
// the macro leaves no code behind.
#if SCA_TELEMETRY_ENABLED
#define SCA_TELEMETRY_CAT2(a, b) a##b
#define SCA_TELEMETRY_CAT(a, b) SCA_TELEMETRY_CAT2(a, b)
#define SCA_SCOPED_TIMER(hist_ptr) \
    const ::sca::util::scoped_timer SCA_TELEMETRY_CAT(sca_timer_, __LINE__)(hist_ptr)
#else
#define SCA_SCOPED_TIMER(hist_ptr) \
    do {                           \
    } while (false)
#endif

#endif  // SCA_UTIL_TELEMETRY_HPP
