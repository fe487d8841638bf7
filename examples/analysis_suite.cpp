// One model, every analysis (the paper's core rationale: a single modeling
// front end must serve static, frequency-domain, noise, and time-domain
// simulation without per-analysis rebuilds).
//
// A two-stage RC-loaded amplifier input network is defined once as a
// scenario; a single built testbench handle then drives:
//   1. dc_solve        - quiescent operating point
//   2. ac_sweep        - small-signal transfer magnitude/phase
//   3. noise_sweep     - output-referred noise PSD and integrated rms
//   4. transient       - the same testbench's time-domain run with probes
// (1-3 take the equation system of the testbench's continuous-time view)
// and finally a run_set sweeps the load corner across worker threads.
//
// Build & run:  ./examples/analysis_suite
#include <cstdio>
#include <numbers>

#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "solver/ac.hpp"
#include "solver/dc.hpp"
#include "solver/noise.hpp"
#include "util/measure.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace solver = sca::solver;
using namespace sca::de::literals;

namespace {

core::scenario define_frontend() {
    return core::scenario::define(
        "amp_frontend",
        core::params{{"r1", 10e3}, {"r2", 4.7e3}, {"c_load", 3.3e-9}, {"v_bias", 2.5}},
        [](core::testbench& tb, const core::params& p) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(1.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto mid = net.create_node("mid");
            auto out = net.create_node("out");

            // Biased source with small-signal AC drive, two-stage RC.
            auto& vs = tb.make<eln::vsource>(
                "vs", net, vin, gnd,
                eln::waveform::sine(0.1, 10e3, p.number("v_bias")));
            vs.set_ac(1.0);
            tb.make<eln::resistor>("r1", net, vin, mid, p.number("r1"));
            tb.make<eln::capacitor>("c1", net, mid, gnd, 1e-9);
            tb.make<eln::resistor>("r2", net, mid, out, p.number("r2"));
            tb.make<eln::capacitor>("c_load", net, out, gnd, p.number("c_load"));

            tb.note("out", double(out.index()));
            tb.probe("vout", [&net, out] { return net.voltage(out); });
            tb.set_sample_period(5_us);
            tb.set_stop_time(2_ms);
            tb.measure("vout_rms_ac", [&tb] {
                // Remove the bias before computing the signal rms.
                auto v = tb.waveform("vout");
                const double mean = sca::util::mean(v);
                for (double& x : v) x -= mean;
                return sca::util::rms(v);
            });
        });
}

}  // namespace

int main() {
    auto sc = define_frontend();
    auto tb = sc.build();
    const auto out = static_cast<std::size_t>(tb->note("out"));

    std::printf("Analysis suite: one scenario, four analyses, zero rebuilds\n\n");

    const auto& sys = tb->view().equations();

    // 1. DC operating point -------------------------------------------------
    const auto op = solver::dc_solve(sys, 0.0);
    std::printf("1) DC operating point (bias %.1f V):\n",
                tb->parameters().number("v_bias"));
    for (std::size_t i = 0; i < op.size(); ++i) {
        std::printf("     %-12s %10.4f\n", sys.unknown_name(i).c_str(), op[i]);
    }

    // 2. AC sweep -----------------------------------------------------------
    std::printf("\n2) AC transfer to 'out':\n");
    std::printf("   %12s %12s %12s\n", "f [kHz]", "|H| [dB]", "phase [deg]");
    for (double f : {1e3, 5e3, 10e3, 50e3, 200e3}) {
        const auto pt =
            solver::ac_sweep(sys, out, {f, f, 1, solver::sweep::scale::logarithmic})[0];
        std::printf("   %12.1f %12.2f %12.1f\n", f / 1e3, pt.magnitude_db(),
                    pt.phase_deg());
    }

    // 3. Noise --------------------------------------------------------------
    const auto nres = solver::noise_sweep(sys, out, {100.0, 1e6, 100});
    std::printf("\n3) output noise 100 Hz - 1 MHz: %.3f uV rms (%zu thermal sources)\n",
                nres.integrated_rms() * 1e6, nres.source_names.size());

    // 4. Transient on the very same testbench -------------------------------
    tb->run();
    std::printf("\n4) transient 2 ms: vout signal rms %.4f V (10 kHz tone through\n"
                "   the RC cascade)\n",
                tb->measurement("vout_rms_ac"));

    // And the multi-run engine over the same definition ---------------------
    const auto table = core::run_set(sc)
                           .with_grid(core::param_grid().add(
                               "c_load", {1e-9, 3.3e-9, 10e-9, 33e-9}))
                           .keep_waveforms(false)
                           .run_all();
    std::printf("\nload-corner sweep (run_set, %zu runs):\n", table.size());
    std::printf("   %12s %14s\n", "c_load [nF]", "vout rms [V]");
    for (const auto& run : table.runs()) {
        if (!run.ok) {
            std::printf("   run %zu failed: %s\n", run.index, run.error.c_str());
            continue;
        }
        std::printf("   %12.1f %14.4f\n", run.parameters.number("c_load") * 1e9,
                    run.measurement("vout_rms_ac"));
    }
    std::printf("\nExpected shape: flat passband into the RC poles, noise set by the\n"
                "two resistors, transient rms tracking the AC magnitude at 10 kHz,\n"
                "and the sweep showing the load capacitor eating the signal.\n");
    return 0;
}
