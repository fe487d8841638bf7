// PHASE1: the paper's phase-1 capability list — linear dynamic CT MoC with
// fixed-timestep transient, small-signal AC and noise; predefined linear
// operators (Laplace transfer function, state-space); linear network
// elements; all embedded in static dataflow.
//
// The same 2nd-order lowpass realized three ways (ltf_nd, state_space, RLC
// network); the benchmark times each realization's transient and the AC and
// noise analyses, and reports the cross-view equivalence error.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>

#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "lsf/state_space.hpp"
#include "solver/ac.hpp"
#include "solver/noise.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace solver = sca::solver;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

constexpr de::time k_step = de::time::from_fs(1'000'000'000);  // 1 us
constexpr double k_f0 = 10e3;
constexpr double k_q = 0.707;
constexpr double k_sim_seconds = 2e-3;

std::pair<std::vector<double>, std::vector<double>> lowpass_tf() {
    const double w0 = 2.0 * 3.141592653589793 * k_f0;
    return {{1.0}, {1.0, 1.0 / (k_q * w0), 1.0 / (w0 * w0)}};
}

void ltf_view_transient(benchmark::State& state) {
    double final = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        lsf::system sys("sys");
        sys.set_timestep(k_step);
        auto u = sys.create_signal("u");
        auto y = sys.create_signal("y");
        lsf::source src("src", sys, u, lsf::waveform::sine(1.0, k_f0 / 10.0));
        const auto [num, den] = lowpass_tf();
        lsf::ltf_nd f("f", sys, u, y, num, den);
        sim.run(de::time::from_seconds(k_sim_seconds));
        final = sys.value(y);
    }
    state.counters["final"] = final;
}

void state_space_view_transient(benchmark::State& state) {
    double final = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        lsf::system sys("sys");
        sys.set_timestep(k_step);
        auto u = sys.create_signal("u");
        auto y = sys.create_signal("y");
        lsf::source src("src", sys, u, lsf::waveform::sine(1.0, k_f0 / 10.0));
        const double w0 = 2.0 * 3.141592653589793 * k_f0;
        sca::num::dense_matrix_d a(2, 2), b(2, 1), c(1, 2), d(1, 1);
        a(0, 1) = 1.0;
        a(1, 0) = -w0 * w0;
        a(1, 1) = -w0 / k_q;
        b(1, 0) = w0 * w0;
        c(0, 0) = 1.0;
        lsf::state_space ss("ss", sys, {u}, {y}, a, b, c, d);
        sim.run(de::time::from_seconds(k_sim_seconds));
        final = sys.value(y);
    }
    state.counters["final"] = final;
}

void netlist_view_transient(benchmark::State& state) {
    double final = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        eln::network net("net");
        net.set_timestep(k_step);
        auto gnd = net.ground();
        auto n1 = net.create_node("n1");
        auto n2 = net.create_node("n2");
        auto n3 = net.create_node("n3");
        // Series RLC with matching w0 and Q: R = w0 L / Q ... choose L = 10 mH.
        const double w0 = 2.0 * 3.141592653589793 * k_f0;
        const double l = 10e-3;
        const double c = 1.0 / (w0 * w0 * l);
        const double r = w0 * l / k_q;
        eln::vsource vs("vs", net, n1, gnd, eln::waveform::sine(1.0, k_f0 / 10.0));
        eln::resistor res("r", net, n1, n2, r);
        eln::inductor ind("l", net, n2, n3, l);
        eln::capacitor cap("c", net, n3, gnd, c);
        sim.run(de::time::from_seconds(k_sim_seconds));
        final = net.voltage(n3);
    }
    state.counters["final"] = final;
}

void ac_and_noise_analyses(benchmark::State& state) {
    double mag_f0 = 0.0;
    double noise_rms = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        sca::util::object_bag bag;
        eln::network net("net");
        net.set_timestep(k_step);
        auto gnd = net.ground();
        auto n1 = net.create_node("n1");
        auto n2 = net.create_node("n2");
        auto& vs = bag.make<eln::vsource>("vs", net, n1, gnd, eln::waveform::dc(0.0));
        vs.set_ac(1.0);
        bag.make<eln::resistor>("r", net, n1, n2, 1000.0);
        bag.make<eln::capacitor>("c", net, n2, gnd, 15.9e-9);
        sim.elaborate();

        const auto pts = solver::ac_sweep(net.equations(), n2.index(), {100.0, 1e6, 100});
        mag_f0 = std::abs(pts[50].value);

        const auto res = solver::noise_sweep(net.equations(), n2.index(), {10.0, 10e6, 100});
        noise_rms = res.integrated_rms();
        benchmark::DoNotOptimize(res);
    }
    state.counters["mag_mid"] = mag_f0;
    state.counters["noise_uV_rms"] = noise_rms * 1e6;
}

/// Cross-view equivalence: the phase-1 promise that all description layers
/// produce the same behavior.
void view_equivalence(benchmark::State& state) {
    double max_diff = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        lsf::system sys("sys");
        sys.set_timestep(k_step);
        auto u = sys.create_signal("u");
        auto y1 = sys.create_signal("y1");
        auto y2 = sys.create_signal("y2");
        lsf::source src("src", sys, u, lsf::waveform::sine(1.0, 2e3));
        const auto [num, den] = lowpass_tf();
        lsf::ltf_nd f("f", sys, u, y1, num, den);
        const double w0 = 2.0 * 3.141592653589793 * k_f0;
        sca::num::dense_matrix_d a(2, 2), b(2, 1), c(1, 2), d(1, 1);
        a(0, 1) = 1.0;
        a(1, 0) = -w0 * w0;
        a(1, 1) = -w0 / k_q;
        b(1, 0) = w0 * w0;
        c(0, 0) = 1.0;
        lsf::state_space ss("ss", sys, {u}, {y2}, a, b, c, d);

        sca::util::memory_trace rec;
        sca::core::record(sim, rec, 10_us);
        rec.add_channel("y1", [&] { return sys.value(y1); });
        rec.add_channel("y2", [&] { return sys.value(y2); });
        sim.run(de::time::from_seconds(k_sim_seconds));

        const auto v1 = rec.column(0);
        const auto v2 = rec.column(1);
        max_diff = 0.0;
        for (std::size_t i = 0; i < v1.size(); ++i) {
            max_diff = std::max(max_diff, std::abs(v1[i] - v2[i]));
        }
    }
    state.counters["max_view_diff"] = max_diff;
}

}  // namespace

BENCHMARK(ltf_view_transient)->Unit(benchmark::kMillisecond);
BENCHMARK(state_space_view_transient)->Unit(benchmark::kMillisecond);
BENCHMARK(netlist_view_transient)->Unit(benchmark::kMillisecond);
BENCHMARK(ac_and_noise_analyses)->Unit(benchmark::kMillisecond);
BENCHMARK(view_equivalence)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_phase1_capabilities)
