// DYNAMIC TDF (adaptive sampling): runtime attribute changes let a model
// slow itself down when nothing interesting is happening instead of burning
// cycles at the static worst-case rate — the workload class behind adaptive
// sensing and power-state-driven sampling.
//
// Benchmarks:
//   * adaptive vs static worst-case end-to-end throughput on the bursty
//     receiver (same model as examples/adaptive_receiver.cpp): both cover
//     the same span of simulated input, the adaptive one with 8x sparser
//     sampling during the quiet 90% of each frame.
//   * reschedule cost when every visited configuration is cached (the
//     steady-state of an oscillating model: a hash lookup per reschedule)
//     versus when configurations are met cold (a full schedule compile).
//   * the oscillating model under the parallel run_set engine (also the
//     TSan smoke target in CI: rescheduling must stay data-race-free when
//     independent contexts reschedule concurrently).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>

#include "bench_util.hpp"
#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "tdf/cluster.hpp"
#include "tdf/connect.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace core = sca::core;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

constexpr double k_pi = 3.141592653589793;
constexpr de::time k_fast_step = de::time::from_fs(8'000'000'000);  // 8 us

/// Tone bursts (1 ms of every 10 ms frame), faint floor otherwise.
struct burst_source : tdf::module {
    tdf::out<double> out;
    explicit burst_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    void processing() override {
        const double t = tdf_time().to_seconds();
        const double phase = std::fmod(t, 10e-3);
        out.write(phase < 1e-3 ? std::sin(2.0 * k_pi * 20e3 * t)
                               : 1e-3 * std::sin(2.0 * k_pi * 1.1e3 * t));
    }
};

/// Decimating FIR front end that drops its rate 8x on a quiet envelope
/// (see examples/adaptive_receiver.cpp for the annotated version).
struct adaptive_frontend : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    double taps[8];
    double envelope = 0.0;
    int quiet_streak = 0;
    int quiet_limit;  // huge value = static worst-case model
    bool slow = false;

    adaptive_frontend(const de::module_name& nm, bool adaptive)
        : tdf::module(nm), in("in"), out("out"),
          quiet_limit(adaptive ? 3 : (1 << 30)) {
        in.set_rate(8);
        for (int i = 0; i < 8; ++i) {
            taps[i] = (0.54 - 0.46 * std::cos(2.0 * k_pi * i / 7.0)) / 8.0;
        }
    }

    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override { set_timestep(k_fast_step); }
    void processing() override {
        double acc = 0.0;
        double peak = 0.0;
        for (unsigned k = 0; k < 8; ++k) {
            const double v = in.read(k);
            acc += taps[k] * v;
            peak = std::max(peak, std::abs(v));
        }
        out.write(acc);
        envelope = peak;
    }
    void change_attributes() override {
        if (envelope >= 0.05) {
            quiet_streak = 0;
            slow = false;
        } else if (++quiet_streak >= quiet_limit) {
            slow = true;
        }
        request_timestep(slow ? k_fast_step * 8 : k_fast_step);
    }
};

/// Sink accepting retiming.
struct accepting_sink : tdf::module {
    tdf::in<double> in;
    double last = 0.0;
    explicit accepting_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    void processing() override { last = in.read(); }
};

/// Unanchored sine source that tolerates retiming (the dynamic module in
/// the cluster provides the timestep anchor).
struct accepting_src : tdf::module {
    tdf::out<double> out;
    explicit accepting_src(const de::module_name& nm) : tdf::module(nm), out("out") {}
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    void processing() override {
        out.write(std::sin(2.0 * k_pi * 10e3 * tdf_time().to_seconds()));
    }
};

/// Pass-through that toggles between two timesteps every period (steady-state
/// reschedule cost: every configuration is in the schedule cache).
struct toggler : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    bool slow = false;
    explicit toggler(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
    void processing() override { out.write(in.read()); }
    void change_attributes() override {
        slow = !slow;
        request_timestep(slow ? 8_us : 1_us);
    }
};

/// Decimator cycling through `n_configs` distinct input rates (cold-cache
/// reschedule cost on the first lap, cached afterwards).
struct rate_cycler : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    unsigned n_configs;
    unsigned step = 0;
    rate_cycler(const de::module_name& nm, unsigned n)
        : tdf::module(nm), in("in"), out("out"), n_configs(n) {}
    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override {
        // 7.2072 us = 10000 x lcm(1..16) fs: the source timestep stays an
        // integer femtosecond count for every cycled input rate up to 16.
        set_timestep(de::time::from_fs(7'207'200'000));
    }
    void processing() override {
        double acc = 0.0;
        for (unsigned k = 0; k < in.rate(); ++k) acc += in.read(k);
        out.write(acc);
    }
    void change_attributes() override {
        step = (step + 1) % n_configs;
        request_rate(in, 1 + step);
    }
};

constexpr double k_sim_seconds = 100e-3;

void receiver_run(benchmark::State& state, bool adaptive, std::uint64_t max_batch) {
    std::uint64_t fe_firings = 0;
    std::uint64_t reschedules = 0;
    std::uint64_t recompiles = 0;
    std::uint64_t kernel_notifications = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        burst_source src("src");
        adaptive_frontend fe("fe", adaptive);
        accepting_sink sink("sink");
        tdf::signal<double> s1("s1"), s2("s2");
        src.out.bind(s1);
        fe.in.bind(s1);
        fe.out.bind(s2);
        sink.in.bind(s2);
        tdf::registry::of(sim).set_default_max_batch_periods(max_batch);
        sim.run(de::time::from_seconds(k_sim_seconds));
        benchmark::DoNotOptimize(sink.last);
        fe_firings = fe.activation_count();
        const auto& c = *tdf::registry::of(sim).clusters().at(0);
        reschedules = c.reschedule_count();
        recompiles = c.recompile_count();
        kernel_notifications = sim.sched().timed_notification_count();
    }
    // End-to-end coverage rate: both models sweep the same 100 ms of input
    // signal; the static one needs 8x the samples for the quiet 90%.
    state.counters["covered_samples_per_sec"] = benchmark::Counter(
        k_sim_seconds / (k_fast_step.to_seconds() / 8.0),
        benchmark::Counter::kIsIterationInvariantRate);
    state.counters["fe_firings"] = static_cast<double>(fe_firings);
    state.counters["reschedules"] = static_cast<double>(reschedules);
    state.counters["recompiles"] = static_cast<double>(recompiles);
    state.counters["kernel_notifications"] = static_cast<double>(kernel_notifications);
}

void adaptive_receiver_throughput(benchmark::State& state) {
    // A/B on dynamic-cluster period batching (arg = max batched periods):
    // 1 re-arms the DE kernel every period (the pre-batching behaviour), 64
    // amortizes the kernel interaction across up to 64 periods while still
    // opening the change_attributes() window between every pair of periods —
    // watch the kernel_notifications counter collapse, with reschedules and
    // waveforms identical.
    receiver_run(state, /*adaptive=*/true,
                 static_cast<std::uint64_t>(state.range(0)));
}

void static_worstcase_throughput(benchmark::State& state) {
    receiver_run(state, /*adaptive=*/false,
                 static_cast<std::uint64_t>(state.range(0)));
}

void reschedule_cost_cached(benchmark::State& state) {
    // Worst case for the reschedule path itself: a toggle every period, so
    // every period pays gating + signature + cache hit + install.
    std::uint64_t reschedules = 0;
    std::uint64_t recompiles = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        accepting_src src("src");
        toggler tog("tog");
        accepting_sink sink("sink");
        tdf::signal<double> s1("s1"), s2("s2");
        src.out.bind(s1);
        tog.in.bind(s1);
        tog.out.bind(s2);
        sink.in.bind(s2);
        sim.run(de::time::from_seconds(20e-3));
        const auto& c = *tdf::registry::of(sim).clusters().at(0);
        reschedules = c.reschedule_count();
        recompiles = c.recompile_count();
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["reschedules_per_iter"] = static_cast<double>(reschedules);
    state.counters["recompiles"] = static_cast<double>(recompiles);
    state.counters["reschedules_per_sec"] = benchmark::Counter(
        static_cast<double>(reschedules),
        benchmark::Counter::kIsIterationInvariantRate);
}

void reschedule_cost_cold(benchmark::State& state) {
    // Cycle through `n` distinct configurations: lap one compiles them all,
    // later laps hit the cache — recompiles stays at n however long we run.
    const auto n = static_cast<unsigned>(state.range(0));
    std::uint64_t reschedules = 0;
    std::uint64_t recompiles = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        accepting_src src("src");
        rate_cycler cyc("cyc", n);
        accepting_sink sink("sink");
        tdf::signal<double> s1("s1"), s2("s2");
        src.out.bind(s1);
        cyc.in.bind(s1);
        cyc.out.bind(s2);
        sink.in.bind(s2);
        sim.run(de::time::from_seconds(20e-3));
        const auto& c = *tdf::registry::of(sim).clusters().at(0);
        reschedules = c.reschedule_count();
        recompiles = c.recompile_count();
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["reschedules_per_iter"] = static_cast<double>(reschedules);
    state.counters["recompiles"] = static_cast<double>(recompiles);
}

void dynamic_parallel_run_set(benchmark::State& state) {
    // The oscillating receiver across a run_set of 1/2/4 workers (the
    // argument): every context reschedules concurrently (the CI TSan smoke
    // runs exactly this).
    auto sc = core::scenario::define(
        "bench_dynamic_parallel", core::params{{"f", 10e3}},
        [](core::testbench& tb, const core::params& p) {
            auto& src = tb.make<burst_source>("src");
            auto& fe = tb.make<adaptive_frontend>("fe", true);
            auto& sink = tb.make<accepting_sink>("sink");
            tdf::connect(src.out, fe.in);
            auto& s_out = tdf::connect(fe.out, sink.in);
            tb.probe("out", s_out);
            (void)p;
            tb.set_sample_period(64_us);
            tb.set_stop_time(20_ms);
        });
    for (auto _ : state) {
        auto table = core::run_set(sc)
                         .with_grid(core::param_grid().add_linspace("f", 1e3, 20e3, 8))
                         .set_workers(static_cast<unsigned>(state.range(0)))
                         .run_all();
        benchmark::DoNotOptimize(table.failed_count());
    }
}

}  // namespace

BENCHMARK(adaptive_receiver_throughput)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(static_worstcase_throughput)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(reschedule_cost_cached)->Unit(benchmark::kMillisecond);
BENCHMARK(reschedule_cost_cold)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(dynamic_parallel_run_set)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

SCA_BENCH_MAIN(bench_dynamic_tdf)
