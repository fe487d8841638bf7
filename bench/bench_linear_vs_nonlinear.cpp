// CLAIM-LIN (paper §3, citing [6]): for linear models "the resulting system
// of equations can be solved without iterations".
//
// The same RC ladder advanced with (a) the fixed-step linear solver (one LU
// factorization, one forward/back substitution per step) and (b) the Newton
// nonlinear solver, forced by inserting a numerically negligible nonlinear
// element (the topology and waveforms are identical).  Counters report the
// factorization count: 1 for the linear path, one-or-more per step for
// Newton.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "eln/nonlinear.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
using namespace bench_util;

namespace {

constexpr double k_sim_seconds = 1e-3;
constexpr de::time k_step = de::time::from_fs(1'000'000'000);  // 1 us

void linear_ladder(benchmark::State& state) {
    const auto sections = static_cast<std::size_t>(state.range(0));
    std::uint64_t factorizations = 0;
    std::uint64_t activations = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(sections, k_step);
        sim.run(de::time::from_seconds(k_sim_seconds));
        factorizations = ladder.net->factorizations();
        activations = ladder.net->activation_count();
        benchmark::DoNotOptimize(ladder.net->voltage(ladder.out_node));
    }
    state.counters["factorizations"] = static_cast<double>(factorizations);
    state.counters["steps"] = static_cast<double>(activations);
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(activations), benchmark::Counter::kIsIterationInvariantRate);
}

void newton_ladder(benchmark::State& state) {
    const auto sections = static_cast<std::size_t>(state.range(0));
    std::uint64_t factorizations = 0;
    std::uint64_t activations = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(sections, k_step);
        // A vanishing nonlinearity: same equations, but the solver can no
        // longer assume linearity and must iterate.
        auto gnd = ladder.net->ground();
        eln::nonlinear_vccs tiny("tiny", *ladder.net, ladder.out_node, gnd,
                                 ladder.out_node, gnd,
                                 [](double v) { return 1e-15 * v; },
                                 [](double) { return 1e-15; });
        sim.run(de::time::from_seconds(k_sim_seconds));
        factorizations = ladder.net->factorizations();
        activations = ladder.net->activation_count();
        benchmark::DoNotOptimize(ladder.net->voltage(ladder.out_node));
    }
    state.counters["factorizations"] = static_cast<double>(factorizations);
    state.counters["steps"] = static_cast<double>(activations);
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(activations), benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(linear_ladder)->Arg(8)->Arg(32)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(newton_ladder)->Arg(8)->Arg(32)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_linear_vs_nonlinear)
