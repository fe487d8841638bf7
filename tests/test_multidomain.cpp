// Multi-domain conservative modeling tests (paper phase 3): mechanical
// translational/rotational, thermal, and electro-mechanical coupling.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/scenario.hpp"
#include "eln/multidomain.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "util/measure.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace core = sca::core;
using namespace sca::de::literals;

TEST(mechanical, damped_mass_reaches_terminal_velocity) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(100.0, de::time_unit::us);
    auto mgnd = net.ground(eln::nature::mechanical_translational);
    auto v = net.create_node("v", eln::nature::mechanical_translational);
    eln::mass m("m", net, v, 2.0);                      // 2 kg
    eln::damper b("b", net, v, mgnd, 4.0);              // 4 N*s/m
    eln::force_source f("f", net, mgnd, v, eln::waveform::dc(8.0));  // 8 N

    sim.run(5_sec);
    // Terminal velocity F/b = 2 m/s, time constant m/b = 0.5 s.
    EXPECT_NEAR(net.voltage(v), 2.0, 1e-6);
}

TEST(mechanical, mass_spring_damper_oscillation) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(100.0, de::time_unit::us);
    auto mgnd = net.ground(eln::nature::mechanical_translational);
    auto v = net.create_node("v", eln::nature::mechanical_translational);
    const double m = 1.0, k = 100.0, b = 0.4;  // f0 = 1.59 Hz, lightly damped
    eln::mass mass_("m", net, v, m);
    eln::spring spring_("k", net, v, mgnd, k);
    eln::damper damper_("b", net, v, mgnd, b);
    // Force step applied after a short delay so t=0 is quiescent.
    eln::force_source f("f", net, mgnd, v,
                        eln::waveform::pulse(0.0, 10.0, 0.1, 1e-6, 1e-6, 100.0, 200.0));
    eln::position_probe pos("pos", net, v);

    struct pos_sink : sca::tdf::module {
        sca::tdf::in<double> in;
        std::vector<double> xs;
        explicit pos_sink(const de::module_name& nm) : sca::tdf::module(nm), in("in") {}
        void processing() override { xs.push_back(in.read()); }
    } sink("sink");
    sca::tdf::signal<double> s("s");
    pos.outp.bind(s);
    sink.in.bind(s);

    sim.run(20_sec);
    // Final position = F/k = 0.1 m; damped oscillation on the way there.
    ASSERT_FALSE(sink.xs.empty());
    EXPECT_NEAR(sink.xs.back(), 0.1, 1e-3);
    double overshoot = 0.0;
    for (double x : sink.xs) overshoot = std::max(overshoot, x);
    EXPECT_GT(overshoot, 0.15);  // underdamped: overshoots the final value
}

TEST(mechanical, rotational_inertia_spin_up) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::ms);
    auto rgnd = net.ground(eln::nature::mechanical_rotational);
    auto w = net.create_node("w", eln::nature::mechanical_rotational);
    eln::inertia j("j", net, w, 0.5);                  // 0.5 kg m^2
    eln::rotational_damper b("b", net, w, rgnd, 0.1);  // friction
    eln::torque_source t("t", net, rgnd, w, eln::waveform::dc(1.0));

    sim.run(60_sec);  // >> tau = J/b = 5 s
    EXPECT_NEAR(net.voltage(w), 10.0, 1e-3);  // T/b
}

TEST(thermal, rc_heating_curve) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(10.0, de::time_unit::ms);
    auto ambient = net.ground(eln::nature::thermal);
    auto junction = net.create_node("tj", eln::nature::thermal);
    const double rth = 20.0;  // K/W
    const double cth = 0.5;   // J/K -> tau = 10 s
    eln::thermal_resistance r("rth", net, junction, ambient, rth);
    eln::thermal_capacitance c("cth", net, junction, cth);
    // 2 W dissipation switched on at t = 1 s.
    eln::heat_source p("p", net, ambient, junction,
                       eln::waveform::pulse(0.0, 2.0, 1.0, 1e-6, 1e-6, 1e4, 2e4));

    sim.run(11_sec);  // one tau after switch-on
    const double expected = 2.0 * rth * (1.0 - std::exp(-1.0));
    EXPECT_NEAR(net.voltage(junction), expected, 0.2);
}

TEST(electromechanical, dc_motor_steady_state_speed) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(100.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vp = net.create_node("vp");
    auto shaft = net.create_node("shaft", eln::nature::mechanical_rotational);
    auto rgnd = net.ground(eln::nature::mechanical_rotational);
    const double ra = 1.0, la = 1e-3, kt = 0.1;
    const double j = 0.01, b = 0.001;
    eln::vsource vs("vs", net, vp, gnd, eln::waveform::dc(12.0));
    eln::dc_motor motor("motor", net, vp, gnd, shaft, ra, la, kt);
    eln::inertia inertia_("j", net, shaft, j);
    eln::rotational_damper fric("b", net, shaft, rgnd, b);

    sim.run(10_sec);
    // w = V K / (R b + K^2), i = b w / K.
    const double w_expected = 12.0 * kt / (ra * b + kt * kt);
    EXPECT_NEAR(net.voltage(shaft), w_expected, 0.01);
    EXPECT_NEAR(net.current(motor), b * w_expected / kt, 1e-4);
}

TEST(electromechanical, motor_back_emf_limits_current) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(100.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vp = net.create_node("vp");
    auto shaft = net.create_node("shaft", eln::nature::mechanical_rotational);
    auto rgnd = net.ground(eln::nature::mechanical_rotational);
    eln::vsource vs("vs", net, vp, gnd,
                    eln::waveform::pulse(0.0, 12.0, 1e-3, 1e-6, 1e-6, 100.0, 200.0));
    eln::dc_motor motor("motor", net, vp, gnd, shaft, 1.0, 1e-3, 0.1);
    eln::inertia inertia_("j", net, shaft, 0.01);
    eln::rotational_damper fric("b", net, shaft, rgnd, 0.001);

    sca::util::memory_trace rec;
    core::record(sim, rec, 1_ms);
    rec.add_channel("i", [&] { return net.current(motor); });
    sim.run(5_sec);

    const auto i = rec.column(0);
    double imax = 0.0;
    for (double x : i) imax = std::max(imax, x);
    // Stall current ~ 12 A at switch-on, decaying as back-EMF builds.
    EXPECT_GT(imax, 8.0);
    EXPECT_LT(std::abs(i.back()), 1.5);
}

TEST(multidomain, nature_checks_guard_connections) {
    de::simulation_context sim;
    eln::network net("net");
    auto electrical = net.create_node("e");
    auto thermal_node = net.create_node("t", eln::nature::thermal);
    EXPECT_THROW(eln::mass("m", net, electrical, 1.0), sca::util::error);
    EXPECT_THROW(eln::thermal_capacitance("c", net, electrical, 1.0), sca::util::error);
    EXPECT_THROW(eln::resistor("r", net, electrical, thermal_node, 1.0),
                 sca::util::error);

    // A rejected pin takes its registration back out of the network (its
    // terminal is fully built before it binds), so the network stays usable.
    net.set_timestep(100.0, de::time_unit::us);
    auto mgnd = net.ground(eln::nature::mechanical_translational);
    auto v = net.create_node("v", eln::nature::mechanical_translational);
    eln::resistor re("re", net, electrical, net.ground(), 1.0);  // no floating nodes
    eln::thermal_resistance rt("rt", net, thermal_node, net.ground(eln::nature::thermal),
                               1.0);
    eln::mass m("m", net, v, 2.0);
    eln::damper b("b", net, v, mgnd, 4.0);
    eln::force_source f("f", net, mgnd, v, eln::waveform::dc(8.0));
    sim.run(5_sec);
    EXPECT_NEAR(net.voltage(v), 2.0, 1e-6);  // terminal velocity F/b
}
