// Nonlinear network tests (paper phase 2): diode, MOS devices, custom
// nonlinearities, and the variable-timestep integration embedded in TDF.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <optional>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/nonlinear.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/signal.hpp"
#include "util/measure.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace core = sca::core;
using namespace sca::de::literals;

namespace {

/// Where a conductance g and a default diode (Is = 1e-14 A, n = 1,
/// Vt = 25.852 mV) in parallel share 1 mA: the root of
/// g v + Is (e^{v/(n Vt)} - 1) = 1 mA, by bisection on [0, 1] V.
double diode_node_root(double g) {
    double lo = 0.0;
    double hi = 1.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double i_mid = g * mid + 1e-14 * (std::exp(mid / 0.025852) - 1.0);
        (i_mid > 1e-3 ? hi : lo) = mid;
    }
    return 0.5 * (lo + hi);
}

}  // namespace

TEST(nonlinear, diode_forward_voltage) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vd = net.create_node("vd");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(5.0));
    eln::resistor r("r", net, vin, vd, 1000.0);
    eln::diode d("d", net, vd, gnd);

    sim.run(5_us);
    // ~4.3 mA through 1k: forward voltage in the usual silicon range.
    EXPECT_GT(net.voltage(vd), 0.55);
    EXPECT_LT(net.voltage(vd), 0.80);
}

TEST(nonlinear, diode_blocks_reverse) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vd = net.create_node("vd");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(-5.0));
    eln::resistor r("r", net, vin, vd, 1000.0);
    eln::diode d("d", net, vd, gnd);

    sim.run(5_us);
    EXPECT_NEAR(net.voltage(vd), -5.0, 1e-3);  // no current: full reverse bias
}

TEST(nonlinear, half_wave_rectifier_with_filter) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(5.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::sine(5.0, 1e3));
    eln::diode d("d", net, vin, vout);
    eln::capacitor c("c", net, vout, gnd, 10e-6);
    eln::resistor load("load", net, vout, gnd, 10e3);

    sca::util::memory_trace rec;
    core::record(sim, rec, 10_us);
    rec.add_channel("vout", [&] { return net.voltage(vout); });
    sim.run(10_ms);

    const auto v = rec.column(0);
    // Peak detector: settles near the peak minus one diode drop, low ripple.
    std::vector<double> tail(v.end() - 200, v.end());
    const double mean_v = sca::util::mean(tail);
    EXPECT_GT(mean_v, 3.7);
    EXPECT_LT(mean_v, 4.7);
    double ripple = 0.0;
    for (double x : tail) ripple = std::max(ripple, std::abs(x - mean_v));
    EXPECT_LT(ripple, 0.4);
}

TEST(nonlinear, nmos_saturation_current) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vg = net.create_node("vg");
    auto vd = net.create_node("vd");
    eln::vsource vgs("vgs", net, vg, gnd, eln::waveform::dc(1.7));
    eln::vsource vds("vds", net, vd, gnd, eln::waveform::dc(3.0));
    eln::nmos m("m", net, vd, vg, gnd, 2e-3, 0.7, 0.0);

    sim.run(3_us);
    // Saturation: Id = k/2 (vgs - vth)^2 = 1e-3 * 1 = 1 mA, drawn through vds.
    EXPECT_NEAR(std::abs(net.current(vds)), 1e-3, 2e-5);
}

TEST(nonlinear, nmos_resistor_inverter_transfer) {
    auto vout_for = [](double vin_value) {
        de::simulation_context sim;
        sca::util::object_bag bag;
        eln::network net("net");
        net.set_timestep(1.0, de::time_unit::us);
        auto gnd = net.ground();
        auto vdd = net.create_node("vdd");
        auto vin = net.create_node("vin");
        auto vout = net.create_node("vout");
        bag.make<eln::vsource>("vdd_s", net, vdd, gnd, eln::waveform::dc(5.0));
        bag.make<eln::vsource>("vin_s", net, vin, gnd, eln::waveform::dc(vin_value));
        bag.make<eln::resistor>("rl", net, vdd, vout, 10e3);
        bag.make<eln::nmos>("m", net, vout, vin, gnd, 2e-3, 0.7, 0.01);
        sim.run(3_us);
        return net.voltage(vout);
    };
    EXPECT_GT(vout_for(0.0), 4.9);   // off: pulled to VDD
    EXPECT_LT(vout_for(5.0), 0.5);   // hard on: pulled low
    EXPECT_GT(vout_for(0.0), vout_for(1.0));  // monotonic falling
}

TEST(nonlinear, pmos_mirror_of_nmos) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vdd = net.create_node("vdd");
    auto vg = net.create_node("vg");
    auto vd = net.create_node("vd");
    eln::vsource vs("vs", net, vdd, gnd, eln::waveform::dc(5.0));
    eln::vsource vgs("vgs", net, vg, gnd, eln::waveform::dc(3.3));  // vsg = 1.7
    eln::pmos m("m", net, vd, vg, vdd, 2e-3, 0.7, 0.0);
    eln::resistor load("load", net, vd, gnd, 1000.0);

    sim.run(3_us);
    // Id = k/2 (vsg - vth)^2 = 1 mA into 1k: vd = 1 V.
    EXPECT_NEAR(net.voltage(vd), 1.0, 0.02);
}

TEST(nonlinear, saturating_vccs_clips_and_distorts) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(2.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::sine(2.0, 1e3));
    // tanh transconductor: saturates at +/- 1 mA into 1k -> +/- 1 V.
    eln::nonlinear_vccs amp("amp", net, vin, gnd, gnd, vout,
                            [](double v) { return 1e-3 * std::tanh(v); },
                            [](double v) {
                                const double c = std::cosh(v);
                                return 1e-3 / (c * c);
                            });
    eln::resistor load("load", net, vout, gnd, 1000.0);

    sca::util::memory_trace rec;
    core::record(sim, rec, 2_us);
    rec.add_channel("vout", [&] { return net.voltage(vout); });
    sim.run(8_ms);

    auto v = rec.column(0);
    std::vector<double> tail(v.end() - 2048, v.end());
    // Strong drive into tanh: output compressed below the linear 2 V and
    // rich in odd harmonics.
    double vmax = 0.0;
    for (double x : tail) vmax = std::max(vmax, std::abs(x));
    EXPECT_LT(vmax, 1.01);
    EXPECT_GT(vmax, 0.9);
    EXPECT_GT(sca::util::thd_db(tail, 500e3), -25.0);  // visible distortion
}

TEST(nonlinear, variable_step_statistics_reported) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(10.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::sine(5.0, 1e3));
    eln::diode d("d", net, vin, vout);
    eln::capacitor c("c", net, vout, gnd, 1e-6);
    eln::resistor load("load", net, vout, gnd, 100e3);

    sim.run(2_ms);
    EXPECT_GT(net.factorizations(), net.activation_count());  // Newton refactors
}

TEST(nonlinear, linear_network_stays_on_fast_path) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    eln::isource is("is", net, gnd, n, eln::waveform::sine(1e-3, 10e3));
    eln::resistor r("r", net, n, gnd, 1000.0);
    eln::capacitor c("c", net, n, gnd, 10e-9);

    sim.run(1_ms);
    EXPECT_EQ(net.factorizations(), 1U);  // linear: one LU for the whole run
}

TEST(nonlinear, diode_built_on_running_linear_network_takes_newton_path) {
    // 1 mA into 1 kOhm || 1 uF settles at 1 V.  A diode built across it
    // mid-run restarts the network on the Newton solver from that state, and
    // the node relaxes to where the network with the diode from the start
    // sits.
    const auto settle = [](bool diode_first) {
        de::simulation_context sim;
        eln::network net("net");
        net.set_timestep(1.0, de::time_unit::us);
        auto gnd = net.ground();
        auto n = net.create_node("n");
        eln::isource is("is", net, gnd, n, eln::waveform::dc(1e-3));
        eln::resistor r("r", net, n, gnd, 1000.0);
        eln::capacitor c("c", net, n, gnd, 1e-6);
        std::optional<eln::diode> d;
        if (diode_first) d.emplace("d", net, n, gnd);
        sim.run(5_ms);
        if (!diode_first) {
            EXPECT_NEAR(net.voltage(n), 1.0, 1e-9);
            d.emplace("d", net, n, gnd);
        }
        sim.run(5_ms);
        return net.voltage(n);
    };
    // Both read 0.629 V, 2.9e-15 V apart.
    EXPECT_NEAR(settle(false), settle(true), 1e-9);
}

// A stamp jump on a nonlinear network restarts the Newton solver from the
// present state: the step across the jump is accepted on Newton
// convergence alone, so the node lands on the new algebraic root instead of
// the jump reading as truncation error at every step size.

TEST(nonlinear, resistor_step_on_a_diode_node_meets_the_new_root) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    eln::isource is("is", net, gnd, n, eln::waveform::dc(1e-3));
    eln::resistor r("r", net, n, gnd, 1000.0);
    eln::diode d("d", net, n, gnd);

    sim.run(10_us);
    EXPECT_NEAR(net.voltage(n), diode_node_root(1e-3), 1e-9);
    r.set_value(100.0);
    sim.run(10_us);
    EXPECT_NEAR(net.voltage(n), diode_node_root(1e-2), 1e-9);
}

TEST(nonlinear, diode_built_on_a_running_resistive_node_meets_the_root) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    eln::isource is("is", net, gnd, n, eln::waveform::dc(1e-3));
    eln::resistor r("r", net, n, gnd, 1000.0);

    sim.run(10_us);
    EXPECT_NEAR(net.voltage(n), 1.0, 1e-12);
    eln::diode d("d", net, n, gnd);
    sim.run(10_us);
    EXPECT_NEAR(net.voltage(n), diode_node_root(1e-3), 1e-9);
}

TEST(nonlinear, de_switch_on_a_diode_node_meets_the_root_after_every_toggle) {
    de::simulation_context sim;
    de::signal<bool> ctl("ctl", false);
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    eln::isource is("is", net, gnd, n, eln::waveform::dc(1e-3));
    eln::resistor r("r", net, n, gnd, 1000.0);
    eln::diode d("d", net, n, gnd);
    eln::de_rswitch sw("sw", net, n, gnd, 100.0, 1e6);
    sw.ctrl.bind(ctl);
    sim.register_method("toggler", [&sim, &ctl] {
        ctl.write(!ctl.read());
        sim.next_trigger(10_us);
    });

    // Read half-way between toggles, where the network has sampled the
    // switch position ctl holds.
    sim.run(5_us);
    for (int toggle = 0; toggle < 20; ++toggle) {
        const double g = 1e-3 + (ctl.read() ? 1.0 / 100.0 : 1.0 / 1e6);
        EXPECT_NEAR(net.voltage(n), diode_node_root(g), 1e-9) << "toggle " << toggle;
        sim.run(10_us);
    }
}
