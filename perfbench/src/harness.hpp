// Shared plumbing of the end-to-end benchmark: command-line options, the
// seeded input generator, clock helpers, and the raw report the harness
// prints for perfbench/run.py to reduce into metrics.
//
// The harness measures and checks; it computes no statistics.  Every timing
// leaves here as a raw sample list and every operation as an attempted/failed
// tally, so the statistics (median, mean, tail percentile with its
// sample-count rule, error_rate, derived ratios) live in one tested place:
// perfbench/stats.py.
#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(clock::time_point t0) {
    return seconds_between(t0, clock::now());
}

/// CPU time the calling thread has used, in seconds.  Single-threaded work
/// (set-ups, tdf slices, in-process replays) is timed with it, so time the
/// thread spends descheduled does not count.  A core that a busy neighbour
/// on the same host slows down still counts in full.
[[nodiscard]] inline double thread_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// splitmix64 stream: the only source of workload inputs, so one seed always
/// yields the same input sequence.
class input_rng {
public:
    explicit input_rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi) {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    /// Uniform integer in [lo, hi].
    std::int64_t integer(std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
    }

private:
    std::uint64_t state_;
};

/// Raw measurements of one benchmark run, printed as one JSON line.
class report {
public:
    /// One observation of a distribution (latencies, per-op costs).
    void sample(const std::string& name, double v) { samples_[name].push_back(v); }
    /// A single scalar (throughput, counts, ratios).
    void value(const std::string& name, double v) { values_[name] = v; }
    /// One operation of `category` (run, session, slice, ...); a failed one
    /// counts towards error_rate.
    void op(const std::string& category, bool ok, const std::string& detail = "");
    /// An output check: one operation of category "check".
    void check(const std::string& name, bool ok, const std::string& detail = "") {
        op("check", ok, name + " " + detail);
    }

    /// {"host":{...},"samples":{...},"values":{...},"ops":{...},"failures":[...]}
    [[nodiscard]] std::string to_json(const options& opt) const;

private:
    struct tally {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
    std::map<std::string, tally> ops_;
    std::vector<std::string> failures_;
};

/// Peak resident set of this program (since exec) plus the largest of its
/// reaped children (the multiprocess workers), in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP
