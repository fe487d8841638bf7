// Machine-readable benchmark output shared by every bench_* binary.
//
// SCA_BENCH_MAIN(name) replaces BENCHMARK_MAIN(): it runs the registered
// benchmarks through a reporter that mirrors the normal console output AND
// writes BENCH_<name>.json — one object per benchmark run with its name,
// per-iteration real/cpu time, time unit, iteration count and user counters
// (`state.counters`, rates already per second), plus a config block (host
// CPU, telemetry build flag).  Under repetitions the aggregate
// rows (median/mean/stddev) are captured too; `median` entries are what CI
// trend tracking keys on, falling back to the single-run row when a bench
// does not repeat.  Output directory: $SCA_BENCH_JSON_DIR (default cwd).
#ifndef SCA_BENCH_JSON_HPP
#define SCA_BENCH_JSON_HPP

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/telemetry.hpp"

namespace bench_json {

struct row {
    std::string name;
    std::string aggregate;  // "median"/"mean"/... for aggregate rows, else ""
    std::string time_unit;
    double real_time = 0.0;  // per iteration, in time_unit
    double cpu_time = 0.0;
    std::int64_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;  // by name
};

class json_reporter : public benchmark::ConsoleReporter {
public:
    bool ReportContext(const Context& context) override {
        num_cpus_ = context.cpu_info.num_cpus;
        cycles_per_second_ = context.cpu_info.cycles_per_second;
        return benchmark::ConsoleReporter::ReportContext(context);
    }

    void ReportRuns(const std::vector<Run>& reports) override {
        for (const Run& run : reports) {
            if (run.error_occurred) continue;
            row r;
            r.name = run.benchmark_name();
            if (run.run_type == Run::RT_Aggregate) r.aggregate = run.aggregate_name;
            r.time_unit = benchmark::GetTimeUnitString(run.time_unit);
            r.real_time = run.GetAdjustedRealTime();
            r.cpu_time = run.GetAdjustedCPUTime();
            r.iterations = static_cast<std::int64_t>(run.iterations);
            for (const auto& [name, counter] : run.counters) {
                r.counters.emplace_back(name, counter.value);
            }
            rows_.push_back(std::move(r));
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    [[nodiscard]] const std::vector<row>& rows() const noexcept { return rows_; }
    [[nodiscard]] int num_cpus() const noexcept { return num_cpus_; }
    [[nodiscard]] double cycles_per_second() const noexcept {
        return cycles_per_second_;
    }

private:
    std::vector<row> rows_;
    int num_cpus_ = 0;
    double cycles_per_second_ = 0.0;
};

/// Write BENCH_<bench_name>.json under $SCA_BENCH_JSON_DIR (default ".").
inline void write_report(const json_reporter& reporter, const std::string& bench_name) {
    const char* dir = std::getenv("SCA_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
        "BENCH_" + bench_name + ".json";
    std::ofstream os(path);
    if (!os) return;  // unwritable dir never fails the bench itself
    using sca::util::fmt_double;
    using sca::util::write_json_string;
    os << "{\"bench\":";
    write_json_string(os, bench_name);
    os << ",\"config\":{\"num_cpus\":" << reporter.num_cpus()
       << ",\"cycles_per_second\":" << fmt_double(reporter.cycles_per_second())
       << ",\"telemetry\":" << (SCA_TELEMETRY_ENABLED ? 1 : 0) << "}";
    os << ",\"results\":[";
    bool first = true;
    for (const row& r : reporter.rows()) {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":";
        write_json_string(os, r.name);
        os << ",\"aggregate\":";
        write_json_string(os, r.aggregate);
        os << ",\"real_time\":" << fmt_double(r.real_time)
           << ",\"cpu_time\":" << fmt_double(r.cpu_time) << ",\"time_unit\":\""
           << r.time_unit << "\",\"iterations\":" << r.iterations << ",\"counters\":{";
        for (std::size_t k = 0; k < r.counters.size(); ++k) {
            if (k != 0) os << ',';
            write_json_string(os, r.counters[k].first);
            const double v = r.counters[k].second;
            os << ':' << (std::isfinite(v) ? fmt_double(v) : std::string("null"));
        }
        os << "}}";
    }
    os << "]}\n";
}

}  // namespace bench_json

// Drop-in replacement for BENCHMARK_MAIN(); the JSON report is written after
// the run so a crashed bench leaves no half-written file behind.
#define SCA_BENCH_MAIN(bench_name)                                         \
    int main(int argc, char** argv) {                                      \
        benchmark::Initialize(&argc, argv);                                \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
        bench_json::json_reporter reporter;                                \
        benchmark::RunSpecifiedBenchmarks(&reporter);                      \
        benchmark::Shutdown();                                             \
        bench_json::write_report(reporter, #bench_name);                   \
        return 0;                                                          \
    }

#endif  // SCA_BENCH_JSON_HPP
