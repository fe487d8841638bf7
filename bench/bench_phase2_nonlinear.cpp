// PHASE2: the paper's phase-2 capability list — nonlinear DAEs with variable
// time steps, implicit equations, enriched functional models (amplifiers,
// converters, mixers).
//
// Workloads: a diode bridge rectifier (hard nonlinearity, state-dependent
// topology behavior) and a saturating amplifier chain, both embedded in TDF.
// Counters expose the Newton/variable-step machinery at work.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>

#include "bench_util.hpp"
#include "eln/converter.hpp"
#include "eln/nonlinear.hpp"
#include "lib/amplifier.hpp"
#include "lib/mixer.hpp"
#include "lib/oscillator.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace bench_util;

namespace {

constexpr de::time k_step = de::time::from_fs(5'000'000'000);  // 5 us

void diode_bridge_rectifier(benchmark::State& state) {
    double vout = 0.0;
    std::uint64_t factorizations = 0;
    std::uint64_t steps = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        eln::network net("net");
        net.set_timestep(k_step);
        auto gnd = net.ground();
        auto acp = net.create_node("acp");
        auto acn = net.create_node("acn");
        auto vp = net.create_node("vp");
        // Full bridge: acp/acn to vp (+) and gnd (-).
        eln::vsource vs("vs", net, acp, acn, eln::waveform::sine(10.0, 1e3));
        eln::resistor rsrc("rsrc", net, acn, gnd, 10.0);
        eln::diode d1("d1", net, acp, vp);
        eln::diode d2("d2", net, acn, vp);
        eln::diode d3("d3", net, gnd, acp);
        eln::diode d4("d4", net, gnd, acn);
        eln::capacitor cf("cf", net, vp, gnd, 47e-6);
        eln::resistor load("load", net, vp, gnd, 1000.0);

        sim.run(de::time::from_seconds(20e-3));
        vout = net.voltage(vp);
        factorizations = net.factorizations();
        steps = net.activation_count();
    }
    state.counters["vout"] = vout;
    state.counters["factorizations_per_step"] =
        static_cast<double>(factorizations) / static_cast<double>(steps);
}

void saturating_amplifier_chain(benchmark::State& state) {
    const auto n_stages = static_cast<std::size_t>(state.range(0));
    double last = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        sine_src src("src", 0.2, 5e3, k_step);
        std::vector<std::unique_ptr<lib::amplifier>> amps;
        std::vector<std::unique_ptr<tdf::signal<double>>> wires;
        wires.push_back(std::make_unique<tdf::signal<double>>("w0"));
        src.out.bind(*wires.back());
        for (std::size_t i = 0; i < n_stages; ++i) {
            amps.push_back(std::make_unique<lib::amplifier>(
                de::module_name(("a" + std::to_string(i)).c_str()), 3.0, 1.0, -1.0));
            amps.back()->set_bandwidth(50e3);
            amps.back()->in.bind(*wires.back());
            wires.push_back(
                std::make_unique<tdf::signal<double>>("w" + std::to_string(i + 1)));
            amps.back()->out.bind(*wires.back());
        }
        null_sink sink("sink");
        sink.in.bind(*wires.back());
        sim.run(de::time::from_seconds(20e-3));
        last = sink.last;
    }
    state.counters["last"] = last;
}

void rf_downconversion_chain(benchmark::State& state) {
    // Phase-2 "enriched mixed-signal library": oscillator + mixer + amp.
    double last = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        sine_src rf("rf", 0.1, 450e3, de::time::from_fs(200'000'000));  // 5 MHz rate
        lib::quadrature_oscillator lo("lo", 1.0, 440e3);
        lib::mixer mix("mix", 2.0);
        lib::amplifier ifamp("ifamp", 10.0, 1.0, -1.0);
        ifamp.set_bandwidth(50e3);  // selects the 10 kHz IF
        null_sink sink("sink");
        null_sink qsink("qsink");
        tdf::signal<double> s1("s1"), s2("s2"), s3("s3"), s4("s4"), s5("s5");
        rf.out.bind(s1);
        lo.out_i.bind(s2);
        lo.out_q.bind(s5);
        qsink.in.bind(s5);
        mix.rf.bind(s1);
        mix.lo.bind(s2);
        mix.out.bind(s3);
        ifamp.in.bind(s3);
        ifamp.out.bind(s4);
        sink.in.bind(s4);
        sim.run(de::time::from_seconds(5e-3));
        last = sink.last;
    }
    state.counters["last"] = last;
}

void nonlinear_vs_linear_step_cost(benchmark::State& state) {
    // Marginal cost of the Newton machinery on an otherwise identical model.
    const bool nonlinear = state.range(0) != 0;
    for (auto _ : state) {
        de::simulation_context sim;
        eln::network net("net");
        net.set_timestep(k_step);
        auto gnd = net.ground();
        auto a = net.create_node("a");
        auto b = net.create_node("b");
        eln::vsource vs("vs", net, a, gnd, eln::waveform::sine(1.0, 1e3));
        eln::resistor r1("r1", net, a, b, 1000.0);
        eln::capacitor c1("c1", net, b, gnd, 100e-9);
        std::unique_ptr<eln::nonlinear_vccs> nl;
        if (nonlinear) {
            nl = std::make_unique<eln::nonlinear_vccs>(
                "nl", net, b, gnd, b, gnd, [](double v) { return 1e-4 * std::tanh(v); },
                [](double v) {
                    const double ch = std::cosh(v);
                    return 1e-4 / (ch * ch);
                });
        }
        sim.run(de::time::from_seconds(50e-3));
        benchmark::DoNotOptimize(net.voltage(b));
    }
    state.counters["steps_per_sec"] = benchmark::Counter(
        50e-3 / k_step.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(diode_bridge_rectifier)->Unit(benchmark::kMillisecond);
BENCHMARK(saturating_amplifier_chain)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(rf_downconversion_chain)->Unit(benchmark::kMillisecond);
BENCHMARK(nonlinear_vs_linear_step_cost)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_phase2_nonlinear)
