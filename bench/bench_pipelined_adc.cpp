// SEED-ADC (paper §4, [2]): functional-level exploration of pipelined ADC
// architectures — ENOB versus per-stage analog impairments, with and without
// digital correction, "while achieving comparable accuracy" to a numerical
// reference at a fraction of the cost.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "lib/pipeline_adc.hpp"
#include "util/measure.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace lib = sca::lib;
using namespace bench_util;

namespace {

constexpr de::time k_sample = de::time::from_fs(10'000'000'000);  // 100 kHz

double measure_enob(double gain_error, double offset, bool correction) {
    de::simulation_context sim;
    sine_src src("src", 0.95, 997.0, k_sample);
    lib::pipeline_adc adc("adc", 9, 1.0);
    std::vector<lib::pipeline_stage_params> params(9);
    for (auto& p : params) {
        p.gain_error = gain_error;
        p.offset = offset;
    }
    adc.set_stage_params(params);
    adc.set_digital_correction(correction);

    struct rec : tdf::module {
        tdf::in<double> in;
        std::vector<double> got;
        explicit rec(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } sink("sink");
    struct code_sink : tdf::module {
        tdf::in<std::int64_t> in;
        explicit code_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { (void)in.read(); }
    } csink("csink");
    tdf::signal<double> s1("s1"), s3("s3");
    tdf::signal<std::int64_t> s2("s2");
    src.out.bind(s1);
    adc.in.bind(s1);
    adc.code.bind(s2);
    adc.analog_estimate.bind(s3);
    csink.in.bind(s2);
    sink.in.bind(s3);

    sim.run(de::time::from_seconds(82e-3));
    std::vector<double> tail(sink.got.end() - 8192, sink.got.end());
    return sca::util::enob(sca::util::sinad_db(tail, 1.0 / k_sample.to_seconds()));
}

void adc_enob_vs_gain_error(benchmark::State& state) {
    const double gain_error = static_cast<double>(state.range(0)) * 1e-4;
    double enob = 0.0;
    for (auto _ : state) {
        enob = measure_enob(gain_error, 0.0, true);
    }
    state.counters["enob"] = enob;
    state.counters["gain_error_pct"] = gain_error * 100.0;
}

void adc_enob_offset_with_correction(benchmark::State& state) {
    double enob = 0.0;
    for (auto _ : state) {
        enob = measure_enob(0.0, 0.1, true);
    }
    state.counters["enob"] = enob;
}

void adc_enob_offset_without_correction(benchmark::State& state) {
    double enob = 0.0;
    for (auto _ : state) {
        enob = measure_enob(0.0, 0.1, false);
    }
    state.counters["enob"] = enob;
}

void adc_conversion_throughput(benchmark::State& state) {
    for (auto _ : state) {
        de::simulation_context sim;
        sine_src src("src", 0.95, 997.0, k_sample);
        lib::pipeline_adc adc("adc", 9, 1.0);
        null_sink sink("sink");
        struct code_sink : tdf::module {
            tdf::in<std::int64_t> in;
            explicit code_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
            void processing() override { (void)in.read(); }
        } csink("csink");
        tdf::signal<double> s1("s1"), s3("s3");
        tdf::signal<std::int64_t> s2("s2");
        src.out.bind(s1);
        adc.in.bind(s1);
        adc.code.bind(s2);
        adc.analog_estimate.bind(s3);
        csink.in.bind(s2);
        sink.in.bind(s3);
        sim.run(de::time::from_seconds(100e-3));
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["conversions_per_sec"] = benchmark::Counter(
        100e-3 / k_sample.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(adc_enob_vs_gain_error)->Arg(0)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(adc_enob_offset_with_correction)->Unit(benchmark::kMillisecond);
BENCHMARK(adc_enob_offset_without_correction)->Unit(benchmark::kMillisecond);
BENCHMARK(adc_conversion_throughput)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_pipelined_adc)
