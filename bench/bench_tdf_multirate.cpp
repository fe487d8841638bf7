// RATE-MULTI (paper §3): SDF graphs "have the nice property that a finite
// static scheduling can always be found" — and computing that schedule is a
// one-time elaboration cost, after which multirate execution is as cheap as
// single-rate.
//
// Benchmarks: elaboration (schedule construction) cost for deep chains, and
// steady-state throughput of multirate versus rate-1 pipelines moving the
// same token volume.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench_util.hpp"
#include "kernel/context.hpp"
#include "lib/filters.hpp"
#include "tdf/cluster.hpp"
#include "tdf/schedule.hpp"
#include "util/telemetry.hpp"
#include "util/trace_export.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace lib = sca::lib;
using namespace bench_util;

namespace {

constexpr de::time k_step = de::time::from_fs(1'000'000'000);  // 1 us

/// Coupled-form rotation oscillator: a sine source at a few mul/add per
/// sample instead of a libm sin() call.  The throughput benchmarks measure
/// the executor and the pipeline kernels; with a libm source both A/B arms
/// share a ~15 ns/sample constant that masks exactly the overhead the
/// block path removes.  Per-sample and block paths run the identical
/// recurrence, so the two arms stay bit-identical.
struct rot_src : tdf::module {
    tdf::out<double> out;
    de::time ts;
    double c_, s_;            // rotating phasor, |.| = amplitude
    const double cr_, sr_;    // per-step rotation
    rot_src(const de::module_name& nm, double a, double f, de::time step)
        : tdf::module(nm),
          out("out"),
          ts(step),
          c_(a),
          s_(0.0),
          cr_(std::cos(2.0 * 3.141592653589793 * f * step.to_seconds())),
          sr_(std::sin(2.0 * 3.141592653589793 * f * step.to_seconds())) {}
    void set_attributes() override { set_timestep(ts); }
    void processing() override {
        out.write(s_);
        const double ns = s_ * cr_ + c_ * sr_;
        c_ = c_ * cr_ - s_ * sr_;
        s_ = ns;
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        double* y = blk.out_span(out);
        double c = c_, s = s_;
        for (std::uint64_t i = 0; i < blk.count(); ++i) {
            y[i] = s;
            const double ns = s * cr_ + c * sr_;
            c = c * cr_ - s * sr_;
            s = ns;
        }
        c_ = c;
        s_ = s;
    }
};

void schedule_elaboration(benchmark::State& state) {
    const auto n_stages = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        de::simulation_context sim;
        sine_src src("src", 1.0, 10e3, k_step);
        std::vector<std::unique_ptr<gain_stage>> stages;
        std::vector<std::unique_ptr<tdf::signal<double>>> wires;
        wires.push_back(std::make_unique<tdf::signal<double>>("w0"));
        src.out.bind(*wires.back());
        for (std::size_t i = 0; i < n_stages; ++i) {
            stages.push_back(std::make_unique<gain_stage>(
                de::module_name(("g" + std::to_string(i)).c_str()), 1.0));
            // Alternate 1:2 and 2:1 rates: non-trivial repetition vector.
            if (i % 2 == 0) {
                stages.back()->out.set_rate(2);
            } else {
                stages.back()->in.set_rate(2);
            }
            stages.back()->in.bind(*wires.back());
            wires.push_back(
                std::make_unique<tdf::signal<double>>("w" + std::to_string(i + 1)));
            stages.back()->out.bind(*wires.back());
        }
        null_sink sink("sink");
        sink.in.bind(*wires.back());
        sim.elaborate();  // the measured operation
        benchmark::DoNotOptimize(sim.now());
    }
}

/// state.range(0): 1 = block execution (default), 0 = per-sample A/B baseline.
void monorate_throughput(benchmark::State& state) {
    const bool block = state.range(0) != 0;
    for (auto _ : state) {
        de::simulation_context sim;
        tdf::registry::of(sim).set_default_block_execution(block);
        rot_src src("src", 1.0, 10e3, k_step);
        gain_stage g1("g1", 1.0), g2("g2", 1.0);
        null_sink sink("sink");
        tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
        src.out.bind(s1);
        g1.in.bind(s1);
        g1.out.bind(s2);
        g2.in.bind(s2);
        g2.out.bind(s3);
        sink.in.bind(s3);
        sim.run(de::time::from_seconds(100e-3));
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["tokens_per_sec"] = benchmark::Counter(
        100e-3 / k_step.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

/// state.range(0): 1 = block execution (default), 0 = per-sample A/B baseline.
void multirate_throughput(benchmark::State& state) {
    // Interpolate 1:4, process, decimate 4:1 — 4x the internal token volume.
    const bool block = state.range(0) != 0;
    for (auto _ : state) {
        de::simulation_context sim;
        tdf::registry::of(sim).set_default_block_execution(block);
        rot_src src("src", 1.0, 10e3, k_step);
        lib::interpolator up("up", 4);
        gain_stage g("g", 1.0);
        lib::decimator down("down", 4);
        null_sink sink("sink");
        tdf::signal<double> s1("s1"), s2("s2"), s3("s3"), s4("s4");
        src.out.bind(s1);
        up.in.bind(s1);
        up.out.bind(s2);
        g.in.bind(s2);
        g.out.bind(s3);
        down.in.bind(s3);
        down.out.bind(s4);
        sink.in.bind(s4);
        sim.run(de::time::from_seconds(100e-3));
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["tokens_per_sec"] = benchmark::Counter(
        4.0 * 100e-3 / k_step.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

/// Multirate TDF chain plus an RC-ladder ELN network in one context — the
/// scenario behind the CI trace artifact: elaboration, cluster-firing and
/// solver spans are all present.  Set SCA_TRACE_JSON=<path> to capture a
/// Perfetto-loadable trace and/or SCA_METRICS_JSON=<path> for the metrics
/// dump (written every iteration, outside the timed region; last one wins).
void traced_multidomain(benchmark::State& state) {
    const char* trace_path = std::getenv("SCA_TRACE_JSON");
    const char* metrics_path = std::getenv("SCA_METRICS_JSON");
    for (auto _ : state) {
        de::simulation_context sim;
        if (trace_path != nullptr) sim.tracer().enable();
        rot_src src("src", 1.0, 10e3, k_step);
        lib::interpolator up("up", 4);
        gain_stage g("g", 1.0);
        lib::decimator down("down", 4);
        null_sink sink("sink");
        tdf::signal<double> s1("s1"), s2("s2"), s3("s3"), s4("s4");
        src.out.bind(s1);
        up.in.bind(s1);
        up.out.bind(s2);
        g.in.bind(s2);
        g.out.bind(s3);
        down.in.bind(s3);
        down.out.bind(s4);
        sink.in.bind(s4);
        rc_ladder ladder(8, k_step);
        sim.run(de::time::from_seconds(10e-3));
        benchmark::DoNotOptimize(sink.last);
        if (trace_path != nullptr || metrics_path != nullptr) {
            state.PauseTiming();
            if (trace_path != nullptr) {
                std::ofstream os(trace_path);
                sim.tracer().write_chrome_json(os);
            }
            if (metrics_path != nullptr) {
                std::ofstream os(metrics_path);
                sca::util::write_metrics_json(os, sim.collect_metrics());
            }
            state.ResumeTiming();
        }
    }
}

void repetition_vector_cost(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<tdf::rate_edge> edges;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        edges.push_back({i, i + 1, static_cast<unsigned>(i % 3) + 1,
                         static_cast<unsigned>((i + 1) % 3) + 1});
    }
    for (auto _ : state) {
        auto reps = tdf::repetition_vector(n, edges);
        benchmark::DoNotOptimize(reps);
    }
}

}  // namespace

BENCHMARK(schedule_elaboration)->Arg(10)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);
BENCHMARK(monorate_throughput)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"block"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(multirate_throughput)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"block"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(traced_multidomain)->Unit(benchmark::kMillisecond);
BENCHMARK(repetition_vector_cost)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

SCA_BENCH_MAIN(bench_tdf_multirate)
