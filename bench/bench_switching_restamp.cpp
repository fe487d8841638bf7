// CLAIM-RESTAMP: switching workloads — the dominant virtual-prototyping
// scenario for power electronics (buck converters, power-state-driven
// models) — pay one stamp update + matrix factorization per DE switching
// event.  The incremental restamp pipeline turns that into a values-only
// slot rewrite, then looks the new iteration matrix up in the solver's
// factor cache: a switch only ever revisits a few states (position x
// BE/trapezoidal), so after the first period a toggle re-activates cached
// factors and refactors nothing, and a state never seen before costs one
// *numeric-only* refactorization against the symbolic analysis cached at
// elaboration.  docs/benchmarks.md records the comparison with rebuilding
// the world (full restamp + symbolic factorization per event), and
// tests/test_eln.cpp pins this buck bit-identical to it.
//
// Two networks, each driven by a 50 kHz PWM gate:
//   switched_rc  - 8-section RC ladder with a shunt switch at the output
//   buck         - 24 V buck-style half bridge: source ESR + input
//                  decoupling, switch, freewheel path, LC output filter,
//                  resistive load (the power_driver net)
// plus the buck with its switch held closed and the load resistor given a
// fresh value every 10 us by a DE process (buck_fresh_load_values): every
// update misses the cache, so it prices the miss path at the same event
// rate.  Counters report events/sec, numeric factor passes, and symbolic
// analyses.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "eln/converter.hpp"
#include "lib/pwm.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

constexpr double k_sim_seconds = 10e-3;  // 500 PWM periods, 1000 edges

struct switching_counters {
    std::uint64_t factors = 0;
    std::uint64_t symbolic = 0;
};

/// PWM-driven RC ladder with a shunt switch at the output.
switching_counters run_switched_rc() {
    de::simulation_context sim;

    de::signal<double> duty("duty", 0.5);
    de::signal<bool> gate("gate", false);
    lib::pwm pwm("pwm", 20_us);  // 50 kHz: one toggle every 10 us
    pwm.duty.bind(duty);
    pwm.out.bind(gate);

    rc_ladder ladder(8, de::time(1.0, de::time_unit::us), 470.0, 220e-9);
    eln::de_rswitch sw("sw", *ladder.net, ladder.out_node, ladder.net->ground(), 10.0,
                       1e9);
    sw.ctrl.bind(gate);

    sim.run(de::time::from_seconds(k_sim_seconds));
    return {ladder.net->factorizations(), ladder.net->symbolic_factorizations()};
}

/// The power_driver buck converter (bench_util::switched_buck — the same
/// netlist tests/test_eln.cpp asserts bit-identical to a full restamp).
switching_counters run_buck(double& vout_sample) {
    de::simulation_context sim;

    de::signal<double> duty("duty", 0.5);
    de::signal<bool> gate("gate", false);
    lib::pwm pwm("pwm", 20_us);
    pwm.duty.bind(duty);
    pwm.out.bind(gate);

    switched_buck buck;
    buck.hi_side->ctrl.bind(gate);

    sim.run(de::time::from_seconds(k_sim_seconds));
    vout_sample = buck.net->voltage(buck.vout_node);
    return {buck.net->factorizations(), buck.net->symbolic_factorizations()};
}

/// The buck with its switch held closed; a DE process sets the load to a
/// value it never had before every 10 us, so no update repeats a state.
switching_counters run_buck_fresh_load_values(double& vout_sample) {
    de::simulation_context sim;

    de::signal<bool> gate("gate", true);
    switched_buck buck;
    buck.hi_side->ctrl.bind(gate);
    auto* load = dynamic_cast<eln::resistor*>(buck.parts.back().get());
    sca::util::require(load != nullptr, "bench", "switched_buck lost its load resistor");

    int updates = 0;
    sim.register_method("retune_load", [&] {
        load->set_value(4.0 + 1e-3 * ++updates);
        sim.next_trigger(10_us);
    });

    sim.run(de::time::from_seconds(k_sim_seconds));
    vout_sample = buck.net->voltage(buck.vout_node);
    return {buck.net->factorizations(), buck.net->symbolic_factorizations()};
}

void report(benchmark::State& state, const switching_counters& c) {
    const double events = k_sim_seconds / 10e-6;  // two edges per 20 us period
    state.counters["events_per_sec"] =
        benchmark::Counter(events, benchmark::Counter::kIsIterationInvariantRate);
    state.counters["numeric_factors"] = static_cast<double>(c.factors);
    state.counters["symbolic_factors"] = static_cast<double>(c.symbolic);
}

void switched_rc_incremental(benchmark::State& state) {
    switching_counters c;
    for (auto _ : state) c = run_switched_rc();
    report(state, c);
}

void buck_incremental(benchmark::State& state) {
    switching_counters c;
    double v = 0.0;
    for (auto _ : state) c = run_buck(v);
    benchmark::DoNotOptimize(v);
    report(state, c);
}

void buck_fresh_load_values(benchmark::State& state) {
    switching_counters c;
    double v = 0.0;
    for (auto _ : state) c = run_buck_fresh_load_values(v);
    benchmark::DoNotOptimize(v);
    report(state, c);
}

}  // namespace

BENCHMARK(switched_rc_incremental)->Unit(benchmark::kMillisecond);
BENCHMARK(buck_incremental)->Unit(benchmark::kMillisecond);
BENCHMARK(buck_fresh_load_values)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_switching_restamp)
