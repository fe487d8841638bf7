// Frequency-domain tests: AC magnitude/phase against closed forms, AC of
// linearized nonlinear circuits, noise analysis against kT/C and 4kTR, and
// the argument checks of ac_sweep/noise_sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "kernel/context.hpp"
#include "eln/network.hpp"
#include "eln/nonlinear.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "solver/ac.hpp"
#include "solver/noise.hpp"
#include "util/object_bag.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace solver = sca::solver;
using namespace sca::de::literals;

TEST(sweep, logarithmic_and_linear_grids) {
    const solver::sweep log_sw{10.0, 1000.0, 3, solver::sweep::scale::logarithmic};
    const auto fl = log_sw.frequencies();
    ASSERT_EQ(fl.size(), 3U);
    EXPECT_NEAR(fl[0], 10.0, 1e-9);
    EXPECT_NEAR(fl[1], 100.0, 1e-6);
    EXPECT_NEAR(fl[2], 1000.0, 1e-6);

    const solver::sweep lin_sw{0.0, 10.0, 6, solver::sweep::scale::linear};
    const auto fn = lin_sw.frequencies();
    EXPECT_NEAR(fn[1], 2.0, 1e-12);
}

namespace {

struct rc_fixture {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net;
    eln::node vout;
    double r;
    double c;

    // Default values give fc ~ 1 kHz.
    explicit rc_fixture(double r_ohm = 1000.0, double c_farad = 159.15494309e-9)
        : net("net"), vout(), r(r_ohm), c(c_farad) {
        net.set_timestep(1.0, de::time_unit::us);
        auto gnd = net.ground();
        auto vin = net.create_node("vin");
        vout = net.create_node("vout");
        auto& vs = bag.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(0.0));
        vs.set_ac(1.0);
        bag.make<eln::resistor>("r", net, vin, vout, r);
        bag.make<eln::capacitor>("c", net, vout, gnd, c);
        sim.elaborate();
    }
};

}  // namespace

TEST(ac, rc_lowpass_magnitude_and_phase) {
    {
        rc_fixture f;
        const double fc = 1.0 / (2.0 * std::numbers::pi * f.r * f.c);

        const auto pts = solver::ac_sweep(f.net.equations(), f.vout.index(),
                                          {fc, fc, 1, solver::sweep::scale::logarithmic});
        EXPECT_NEAR(pts[0].magnitude_db(), -3.0103, 0.01);
        EXPECT_NEAR(pts[0].phase_deg(), -45.0, 0.1);
    }

    // Analytic oracle: the first-order 75 kHz input filter of an ADC front
    // end, a decade either side of the corner, against H = 1/(1 + j f/fc).
    const double r = 1e3;
    const double c = 1.0 / (2.0 * std::numbers::pi * 75e3 * r);
    rc_fixture f(r, c);
    const double fc = 1.0 / (2.0 * std::numbers::pi * f.r * f.c);
    const auto pts = solver::ac_sweep(f.net.equations(), f.vout.index(),
                                      {fc / 10.0, fc * 10.0, 41});
    ASSERT_EQ(pts.size(), 41U);
    for (const auto& p : pts) {
        const std::complex<double> h = 1.0 / std::complex<double>(1.0, p.frequency / fc);
        EXPECT_NEAR(std::abs(p.value) / std::abs(h), 1.0, 1e-12) << p.frequency;
        EXPECT_NEAR(p.phase_deg(), solver::phase_deg(h), 1e-9) << p.frequency;
    }
}

TEST(ac, rc_lowpass_rolloff_20db_per_decade) {
    rc_fixture f;
    const auto pts = solver::ac_sweep(f.net.equations(), f.vout.index(),
                                      {10e3, 100e3, 2, solver::sweep::scale::logarithmic});
    EXPECT_NEAR(pts[0].magnitude_db() - pts[1].magnitude_db(), 20.0, 0.2);
}

TEST(ac, rl_divider_transfer) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n1 = net.create_node("n1");
    auto n2 = net.create_node("n2");
    const double r = 50.0, l = 1e-3;
    eln::vsource vs("vs", net, n1, gnd, eln::waveform::dc(0.0));
    vs.set_ac(1.0);
    eln::resistor res("r", net, n1, n2, r);
    eln::inductor ind("l", net, n2, gnd, l);
    sim.elaborate();
    const double f0 = 20e3;
    const auto pts = solver::ac_sweep(net.equations(), n2.index(),
                                      {f0, f0, 1, solver::sweep::scale::logarithmic});
    // RL divider: |H| = wL / sqrt(R^2 + (wL)^2).
    const double wl = 2.0 * std::numbers::pi * f0 * l;
    const double expected = wl / std::sqrt(r * r + wl * wl);
    EXPECT_NEAR(std::abs(pts[0].value), expected, 1e-6);
}

TEST(ac, rlc_bandpass_peaks_at_resonance) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n1 = net.create_node("n1");
    auto n2 = net.create_node("n2");
    const double r = 1000.0, l = 10e-3, c = 2.533e-9;  // f0 ~ 31.6 kHz
    eln::vsource vs("vs", net, n1, gnd, eln::waveform::dc(0.0));
    vs.set_ac(1.0);
    eln::resistor res("r", net, n1, n2, r);
    eln::inductor ind("l", net, n2, gnd, l);
    eln::capacitor cap("c", net, n2, gnd, c);
    sim.elaborate();
    const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(l * c));
    const auto at = [&](double f) {
        return std::abs(solver::ac_sweep(net.equations(), n2.index(),
                                         {f, f, 1, solver::sweep::scale::logarithmic})[0]
                            .value);
    };
    // Parallel LC from n2: impedance peaks at f0, so |v(n2)| is maximal.
    EXPECT_NEAR(at(f0), 1.0, 1e-3);  // tank open-circuits: full input appears
    EXPECT_LT(at(f0 / 10.0), 0.2);
    EXPECT_LT(at(f0 * 10.0), 0.2);
}

TEST(ac, lsf_ltf_matches_ideal_response) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(0.0));
    src.set_ac(1.0);
    const std::vector<double> num{1.0};
    const std::vector<double> den{1.0, 1.0 / (2.0 * std::numbers::pi * 5e3),
                                  1.0 / std::pow(2.0 * std::numbers::pi * 5e3, 2)};
    lsf::ltf_nd f("f", sys, u, y, num, den);
    sim.elaborate();

    for (double freq : {100.0, 1e3, 5e3, 20e3}) {
        const auto pts = solver::ac_sweep(sys.equations(), y.index(),
                                          {freq, freq, 1, solver::sweep::scale::logarithmic});
        const auto ideal = f.ideal_response(freq);
        EXPECT_NEAR(std::abs(pts[0].value), std::abs(ideal), 1e-9) << freq;
        EXPECT_NEAR(std::arg(pts[0].value), std::arg(ideal), 1e-9) << freq;
    }
}

TEST(ac, nonlinear_diode_linearized_at_dc) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vd = net.create_node("vd");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(5.0));
    vs.set_ac(1.0);
    const double r = 10e3;
    eln::resistor res("r", net, vin, vd, r);
    eln::diode d("d", net, vd, gnd);

    sim.run(2_us);  // DC operating point established by the first activation
    const auto dc = net.state();
    const double id = (5.0 - dc[vd.index()]) / r;
    const double rd = 0.025852 / id;  // small-signal diode resistance

    const auto pts = solver::ac_sweep(net.equations(), vd.index(),
                                      {1e3, 1e3, 1, solver::sweep::scale::logarithmic}, dc);
    EXPECT_NEAR(std::abs(pts[0].value), rd / (r + rd), 1e-4);
}

// ------------------------------------------------------- argument checks

TEST(ac, output_index_past_the_system_is_refused) {
    rc_fixture f;
    const auto& sys = f.net.equations();
    const solver::sweep sw{1e3, 1e3, 1};
    EXPECT_THROW((void)solver::ac_sweep(sys, sys.size(), sw), sca::util::error);
    EXPECT_THROW((void)solver::ac_sweep(sys, sys.size() + 7, sw), sca::util::error);
    EXPECT_THROW((void)solver::noise_sweep(sys, sys.size(), sw), sca::util::error);
    EXPECT_EQ(solver::ac_sweep(sys, sys.size() - 1, sw).size(), 1U);
}

TEST(ac, dc_point_of_another_size_is_refused) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vd = net.create_node("vd");
    auto& vs = bag.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(5.0));
    vs.set_ac(1.0);
    bag.make<eln::resistor>("r", net, vin, vd, 10e3);
    bag.make<eln::diode>("d", net, vd, gnd);
    sim.run(2_us);
    const auto& sys = net.equations();
    ASSERT_FALSE(sys.is_linear());
    const solver::sweep sw{1e3, 1e3, 1};

    const std::vector<double> shorter(sys.size() - 1, 0.0);
    const std::vector<double> longer(sys.size() + 1, 0.0);
    for (const auto* dc : {&shorter, &longer}) {
        EXPECT_THROW((void)solver::ac_sweep(sys, vd.index(), sw, *dc), sca::util::error);
        EXPECT_THROW((void)solver::noise_sweep(sys, vd.index(), sw, *dc), sca::util::error);
    }
    // A nonlinear system without a DC point has nothing to linearize around.
    EXPECT_THROW((void)solver::ac_sweep(sys, vd.index(), sw), sca::util::error);
    EXPECT_THROW((void)solver::noise_sweep(sys, vd.index(), sw), sca::util::error);
    // The operating point the transient settled at is accepted by both.
    EXPECT_EQ(solver::ac_sweep(sys, vd.index(), sw, net.state()).size(), 1U);
    EXPECT_EQ(solver::noise_sweep(sys, vd.index(), sw, net.state()).points.size(), 1U);
}

// ------------------------------------------------------------------- noise

TEST(noise, resistor_psd_is_4ktr_at_low_frequency) {
    rc_fixture f;
    const auto result = solver::noise_sweep(f.net.equations(), f.vout.index(),
                                            {1.0, 1.0, 1, solver::sweep::scale::logarithmic});
    const double expected = 4.0 * solver::k_boltzmann * 300.0 * f.r;
    ASSERT_EQ(result.points.size(), 1U);
    EXPECT_NEAR(result.points[0].total_psd / expected, 1.0, 1e-3);
}

TEST(noise, integrated_rc_noise_approaches_kt_over_c) {
    rc_fixture f;
    const auto& sys = f.net.equations();
    // Integrate well past the pole: kT/C is the closed form for the total.
    const auto result = solver::noise_sweep(
        sys, f.vout.index(), {1.0, 100e6, 400, solver::sweep::scale::logarithmic});
    const double expected = std::sqrt(solver::k_boltzmann * 300.0 / f.c);
    EXPECT_NEAR(result.integrated_rms() / expected, 1.0, 0.05);

    // Band-limited closed form: the 4kTR/(1 + (f/fc)^2) output PSD integrates
    // to 4kTR fc (atan(f2/fc) - atan(f1/fc)).  The trapezoid rule's own error
    // on this grid is 4.9e-5 in rms, computed from the closed form.
    const double fc = 1.0 / (2.0 * std::numbers::pi * f.r * f.c);
    const double f1 = 1e3;
    const double f2 = 1e6;
    const auto band = solver::noise_sweep(sys, f.vout.index(), {f1, f2, 401});
    const double band_expected =
        std::sqrt(4.0 * solver::k_boltzmann * 300.0 * f.r * fc *
                  (std::atan(f2 / fc) - std::atan(f1 / fc)));
    EXPECT_NEAR(band.integrated_rms() / band_expected, 1.0, 1e-4);
}

TEST(noise, parallel_resistors_reduce_output_noise) {
    auto run_divider = [](double r2) {
        de::simulation_context sim;
        sca::util::object_bag bag;
        eln::network net("net");
        net.set_timestep(1.0, de::time_unit::us);
        auto gnd = net.ground();
        auto n = net.create_node("n");
        bag.make<eln::resistor>("r1", net, n, gnd, 1000.0);
        bag.make<eln::resistor>("r2", net, n, gnd, r2);
        sim.elaborate();
        const auto res = solver::noise_sweep(net.equations(), n.index(), {1.0, 1.0, 1});
        return res.points[0].total_psd;
    };
    // Output PSD = 4kT * (R1 || R2): smaller parallel resistance, less noise.
    const double psd_small = run_divider(100.0);
    const double psd_large = run_divider(100e3);
    EXPECT_LT(psd_small, psd_large);
    EXPECT_NEAR(psd_small / (4.0 * solver::k_boltzmann * 300.0 * (1000.0 * 100.0 / 1100.0)),
                1.0, 1e-3);
}

TEST(noise, noiseless_resistor_is_excluded) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    auto& r1 = bag.make<eln::resistor>("r1", net, n, gnd, 1000.0);
    r1.set_noisy(false);
    bag.make<eln::resistor>("r2", net, n, gnd, 1000.0);
    sim.elaborate();
    const auto res = solver::noise_sweep(net.equations(), n.index(), {1.0, 1.0, 1});
    ASSERT_EQ(res.source_names.size(), 1U);
    EXPECT_EQ(res.source_names[0], "r2");
}

TEST(noise, per_source_contributions_sum_to_total) {
    rc_fixture f;
    const auto res = solver::noise_sweep(f.net.equations(), f.vout.index(), {100.0, 10e3, 5});
    for (const auto& pt : res.points) {
        double sum = 0.0;
        for (double c : pt.per_source) sum += c;
        EXPECT_NEAR(sum, pt.total_psd, 1e-25);
    }
}

TEST(noise, vsource_noise_psd_contributes) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    auto& vs = bag.make<eln::vsource>("vs", net, a, gnd, eln::waveform::dc(0.0));
    vs.set_noise_psd([](double) { return 1e-12; });  // 1 uV/rtHz
    auto& r1 = bag.make<eln::resistor>("r1", net, a, b, 1000.0);
    auto& r2 = bag.make<eln::resistor>("r2", net, b, gnd, 1000.0);
    r1.set_noisy(false);
    r2.set_noisy(false);
    sim.elaborate();
    const auto res = solver::noise_sweep(net.equations(), b.index(), {1e3, 1e3, 1});
    // Divider halves the amplitude: PSD scales by 1/4.
    EXPECT_NEAR(res.points[0].total_psd, 0.25e-12, 1e-15);
}
