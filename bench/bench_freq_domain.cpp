// CLAIM-FREQ (paper §3): "the frequency-domain model can be derived from the
// time-domain description" — and doing it directly (small-signal AC) is far
// cheaper than estimating the transfer function from a transient run.
//
// A 6-section RC ladder characterized two ways:
//   ac_sweep        - direct complex solves at N frequencies
//   transient_fft   - impulse-ish excitation, long transient, FFT magnitude
// Counters report the agreement between both magnitude estimates at a probe
// frequency, demonstrating the equivalence the paper asserts.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>
#include <complex>

#include "bench_util.hpp"
#include "eln/converter.hpp"
#include "solver/ac.hpp"
#include "util/fft.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace solver = sca::solver;
using namespace bench_util;

namespace {

constexpr de::time k_step = de::time::from_fs(200'000'000);  // 0.2 us -> fs = 5 MHz

/// The ladder with an AC-enabled source; returns the network ready to run.
struct ac_ladder {
    de::simulation_context sim;
    std::unique_ptr<eln::network> net;
    std::vector<std::unique_ptr<eln::component>> parts;
    eln::node out_node;

    explicit ac_ladder(bool sine_burst) {
        net = std::make_unique<eln::network>(de::module_name("net"));
        net->set_timestep(k_step);
        auto gnd = net->ground();
        auto prev = net->create_node("n0");
        auto src = std::make_unique<eln::vsource>(
            "vs", *net, prev, gnd,
            sine_burst ? eln::waveform::custom([](double t) {
                // Wideband excitation: short raised-cosine pulse.
                const double w = 2e-6;
                if (t > w) return 0.0;
                return 0.5 * (1.0 - std::cos(2.0 * 3.141592653589793 * t / w));
            })
                       : eln::waveform::dc(0.0));
        src->set_ac(1.0);
        parts.push_back(std::move(src));
        for (int i = 0; i < 6; ++i) {
            auto node = net->create_node("n" + std::to_string(i + 1));
            parts.push_back(std::make_unique<eln::resistor>(
                "r" + std::to_string(i), *net, prev, node, 1000.0));
            parts.push_back(std::make_unique<eln::capacitor>(
                "c" + std::to_string(i), *net, node, gnd, 3e-9));
            prev = node;
        }
        out_node = prev;
    }
};

constexpr double k_probe_freq = 50e3;

void ac_sweep(benchmark::State& state) {
    const auto points = static_cast<std::size_t>(state.range(0));
    double mag_at_probe = 0.0;
    for (auto _ : state) {
        ac_ladder model(false);
        model.sim.elaborate();
        const auto& sys = model.net->equations();
        const auto pts = solver::ac_sweep(sys, model.out_node.index(),
                                          {100.0, 1e6, points, solver::sweep::scale::logarithmic});
        benchmark::DoNotOptimize(pts);
        const auto probe =
            solver::ac_sweep(sys, model.out_node.index(), {k_probe_freq, k_probe_freq, 1});
        mag_at_probe = std::abs(probe[0].value);
    }
    state.counters["mag_at_50k"] = mag_at_probe;
    state.counters["freqs_per_sec"] = benchmark::Counter(
        static_cast<double>(points), benchmark::Counter::kIsIterationInvariantRate);
}

void transient_fft(benchmark::State& state) {
    double mag_at_probe = 0.0;
    for (auto _ : state) {
        ac_ladder model(true);
        // Record the output; the input is known analytically, so
        // H(f) = FFT(out)/FFT(in) with both on the same sample grid.
        std::vector<double> vin, vout;
        struct rec : tdf::module {
            tdf::in<double> in;
            std::vector<double>* store;
            rec(const de::module_name& nm, std::vector<double>* s)
                : tdf::module(nm), in("in"), store(s) {}
            void processing() override { store->push_back(in.read()); }
        };
        // Input is known analytically; only the output needs probing.
        eln::tdf_vsink out_probe("out_probe", *model.net, model.out_node,
                                 model.net->ground());
        rec out_rec("out_rec", &vout);
        tdf::signal<double> s2("s2");
        out_probe.outp.bind(s2);
        out_rec.in.bind(s2);

        model.sim.run(de::time::from_seconds(3.2e-3));  // 16k samples at 5 MHz

        const double fs = 1.0 / k_step.to_seconds();
        for (std::size_t i = 0; i < vout.size(); ++i) {
            const double t = static_cast<double>(i) * k_step.to_seconds();
            const double w = 2e-6;
            vin.push_back(t > w ? 0.0
                                : 0.5 * (1.0 - std::cos(2.0 * 3.141592653589793 * t / w)));
        }
        const auto in_spec = sca::util::fft_real(vin);
        const auto out_spec = sca::util::fft_real(vout);
        const std::size_t n = in_spec.size();
        const std::size_t bin = static_cast<std::size_t>(k_probe_freq / fs *
                                                         static_cast<double>(n));
        mag_at_probe = std::abs(out_spec[bin]) / std::abs(in_spec[bin]);
        benchmark::DoNotOptimize(mag_at_probe);
    }
    state.counters["mag_at_50k"] = mag_at_probe;
}

}  // namespace

BENCHMARK(ac_sweep)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(transient_fft)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_freq_domain)
