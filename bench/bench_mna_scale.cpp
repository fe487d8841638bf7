// CLAIM-SCALE (paper §3): system-level modeling must be "effective at
// managing complexity, both in terms of descriptive capabilities and
// simulation performances".
//
// MNA solver scaling on RC ladders of growing size: setup (stamp + first
// sparse factorization) versus per-step marginal cost, which stays
// near-linear in N.  docs/benchmarks.md records the dense-LU comparison.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "numeric/sparse.hpp"
#include "solver/equation_system.hpp"
#include "solver/linear_dae.hpp"

namespace de = sca::de;
namespace solver = sca::solver;
using namespace bench_util;

namespace {

constexpr de::time k_step = de::time::from_fs(1'000'000'000);  // 1 us

/// Equation-level ladder (no TDF wrapper): isolates raw solver cost.
solver::equation_system ladder_equations(std::size_t n) {
    solver::equation_system sys;
    std::vector<std::size_t> nodes(n);
    for (std::size_t i = 0; i < n; ++i) nodes[i] = sys.add_unknown("n" + std::to_string(i));
    const double g = 1.0 / 100.0;
    const double c = 1e-9;
    for (std::size_t i = 0; i < n; ++i) {
        sys.add_a(nodes[i], nodes[i], i + 1 < n ? 2.0 * g : g);
        if (i > 0) {
            sys.add_a(nodes[i], nodes[i - 1], -g);
            sys.add_a(nodes[i - 1], nodes[i], -g);
        }
        sys.add_b(nodes[i], nodes[i], c);
    }
    sys.add_rhs_source(nodes[0], [](double t) {
        return std::sin(2.0 * 3.141592653589793 * 10e3 * t) / 100.0;
    });
    return sys;
}

void sparse_setup(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto sys = ladder_equations(n);
        solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal,
                                    k_step.to_seconds());
        s.set_initial_state(std::vector<double>(n, 0.0), 0.0);
        s.step();  // forces the factorization
        benchmark::DoNotOptimize(s.x());
    }
}

void sparse_steps(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    auto sys = ladder_equations(n);
    solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal,
                                k_step.to_seconds());
    s.set_initial_state(std::vector<double>(n, 0.0), 0.0);
    s.step();
    for (auto _ : state) {
        s.step();
        benchmark::DoNotOptimize(s.x());
    }
    state.counters["steps_per_sec"] =
        benchmark::Counter(1.0, benchmark::Counter::kIsIterationInvariantRate);
}

/// Full-stack scaling: the same ladder through the TDF-embedded network.
void network_transient(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(n, k_step);
        sim.run(de::time::from_seconds(1e-4));  // 100 steps
        benchmark::DoNotOptimize(ladder.net->voltage(ladder.out_node));
    }
    state.counters["steps_per_sec"] = benchmark::Counter(
        100.0, benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(sparse_setup)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(sparse_steps)->Arg(10)->Arg(50)->Arg(200)->Arg(1000)->Unit(benchmark::kMicrosecond);
BENCHMARK(network_transient)->Arg(10)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_mna_scale)
