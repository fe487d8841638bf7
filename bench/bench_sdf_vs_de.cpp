// CLAIM-DF (paper §2): "The design of a RF transceiver at system level ...
// is usually done using dataflow models to improve simulation efficiency."
//
// The same N-stage gain pipeline processing the same sample stream, modeled
// (a) as a statically scheduled TDF cluster and (b) as DE processes driven
// by per-sample signal events.  The dataflow version avoids the event queue
// and delta-cycle machinery entirely; the ratio of the two rows is the
// paper's claimed efficiency gain.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "kernel/module.hpp"
#include "kernel/signal.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
using namespace sca::de::literals;
using namespace bench_util;

namespace {

constexpr de::time k_sample_period = de::time::from_fs(1'000'000'000);  // 1 us
constexpr double k_sim_seconds = 10e-3;  // 10k samples per run

void tdf_pipeline(benchmark::State& state) {
    const auto n_stages = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        de::simulation_context sim;
        sine_src src("src", 1.0, 10e3, k_sample_period);
        std::vector<std::unique_ptr<gain_stage>> stages;
        std::vector<std::unique_ptr<tdf::signal<double>>> wires;
        wires.push_back(std::make_unique<tdf::signal<double>>("w0"));
        src.out.bind(*wires.back());
        for (std::size_t i = 0; i < n_stages; ++i) {
            stages.push_back(std::make_unique<gain_stage>(
                de::module_name(("g" + std::to_string(i)).c_str()), 1.0001));
            stages.back()->in.bind(*wires.back());
            wires.push_back(
                std::make_unique<tdf::signal<double>>("w" + std::to_string(i + 1)));
            stages.back()->out.bind(*wires.back());
        }
        null_sink sink("sink");
        sink.in.bind(*wires.back());

        sim.run(de::time::from_seconds(k_sim_seconds));
        benchmark::DoNotOptimize(sink.last);
    }
    const double samples = k_sim_seconds / k_sample_period.to_seconds();
    state.counters["samples_per_sec"] = benchmark::Counter(
        samples * static_cast<double>(n_stages), benchmark::Counter::kIsIterationInvariantRate);
}

namespace de_model {

struct de_gain : de::module {
    de::in<double> in;
    de::out<double> out;
    double k;
    de_gain(const de::module_name& nm, double gain)
        : de::module(nm), in("in"), out("out"), k(gain) {
        declare_method("step", [this] { out.write(k * in.read()); })
            .sensitive(in)
            .dont_initialize();
    }
};

struct de_source : de::module {
    de::out<double> out;
    double amp, freq;
    explicit de_source(const de::module_name& nm, double a, double f)
        : de::module(nm), out("out"), amp(a), freq(f) {
        declare_method("tick", [this] {
            out.write(amp * std::sin(2.0 * 3.141592653589793 * freq *
                                     now().to_seconds()));
            next_trigger(k_sample_period);
        });
    }
};

}  // namespace de_model

void de_pipeline(benchmark::State& state) {
    const auto n_stages = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        de::simulation_context sim;
        de_model::de_source src("src", 1.0, 10e3);
        std::vector<std::unique_ptr<de_model::de_gain>> stages;
        std::vector<std::unique_ptr<de::signal<double>>> wires;
        wires.push_back(std::make_unique<de::signal<double>>("w0"));
        src.out.bind(*wires.back());
        for (std::size_t i = 0; i < n_stages; ++i) {
            stages.push_back(std::make_unique<de_model::de_gain>(
                de::module_name(("g" + std::to_string(i)).c_str()), 1.0001));
            stages.back()->in.bind(*wires.back());
            wires.push_back(
                std::make_unique<de::signal<double>>("w" + std::to_string(i + 1)));
            stages.back()->out.bind(*wires.back());
        }

        sim.run(de::time::from_seconds(k_sim_seconds));
        benchmark::DoNotOptimize(wires.back()->read());
    }
    const double samples = k_sim_seconds / k_sample_period.to_seconds();
    state.counters["samples_per_sec"] = benchmark::Counter(
        samples * static_cast<double>(n_stages), benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(tdf_pipeline)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(de_pipeline)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_sdf_vs_de)
