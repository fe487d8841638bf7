// Edge cases, error paths, and failure injection across all layers: the
// library must fail loudly and informatively on misuse, and the newer
// primitives (ideal opamp, gyrator, de_isource) must match their closed
// forms.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "kernel/context.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/clock.hpp"
#include "lib/amplifier.hpp"
#include "lib/converters.hpp"
#include "lib/filters.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "solver/ac.hpp"
#include "solver/linear_dae.hpp"
#include "solver/noise.hpp"
#include "solver/nonlinear_dae.hpp"
#include "tdf/module.hpp"
#include "util/report.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
namespace solver = sca::solver;
using namespace sca::de::literals;

// ------------------------------------------------------------------- kernel

TEST(kernel_edge, event_cancel_then_renotify) {
    de::simulation_context ctx;
    de::event ev("ev");
    std::vector<double> stamps;
    auto& p = ctx.register_method("w", [&] { stamps.push_back(ctx.now().to_seconds()); });
    p.dont_initialize();
    p.make_sensitive(ev);
    ev.notify(5_ns);
    ev.cancel();
    ev.notify(8_ns);
    ctx.run(20_ns);
    ASSERT_EQ(stamps.size(), 1U);
    EXPECT_DOUBLE_EQ(stamps[0], 8e-9);
}

TEST(kernel_edge, two_contexts_can_be_juggled) {
    de::simulation_context a;
    de::signal<int> sa("sa", 1);
    de::simulation_context b;
    de::signal<int> sb("sb", 2);
    // Objects registered with the context current at their construction.
    EXPECT_EQ(&sa.context(), &a);
    EXPECT_EQ(&sb.context(), &b);
    a.make_current();
    de::signal<int> sa2("sa2", 3);
    EXPECT_EQ(&sa2.context(), &a);
}

TEST(kernel_edge, find_object_misses_return_null) {
    de::simulation_context ctx;
    de::signal<int> s("present", 0);
    EXPECT_EQ(ctx.find_object("absent"), nullptr);
    EXPECT_EQ(ctx.find_object("present"), &s);
}

TEST(kernel_edge, optional_port_with_sensitivity_is_rejected) {
    de::simulation_context ctx;
    struct m : de::module {
        de::in<double> p;
        explicit m(const de::module_name& nm) : de::module(nm), p("p") {
            p.set_optional();
            declare_method("x", [] {}).sensitive(p);
        }
    } mod("mod");
    EXPECT_THROW(ctx.elaborate(), sca::util::error);
}

TEST(kernel_edge, next_trigger_outside_process_throws) {
    de::simulation_context ctx;
    EXPECT_THROW(ctx.next_trigger(1_ns), sca::util::error);
}

TEST(kernel_edge, signal_initialize_bypasses_update_phase) {
    de::simulation_context ctx;
    de::signal<double> s("s", 0.0);
    s.initialize(42.0);
    EXPECT_DOUBLE_EQ(s.read(), 42.0);
}

// --------------------------------------------------------------------- tdf

TEST(tdf_edge, initial_token_values_are_configurable) {
    de::simulation_context ctx;
    struct src : tdf::module {
        tdf::out<double> out;
        explicit src(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override {
            set_timestep(1.0, de::time_unit::us);
            out.set_delay(2);
        }
        void initialize() override { out.set_initial_value(7.5); }
        void processing() override { out.write(1.0); }
    } s("s");
    struct snk : tdf::module {
        tdf::in<double> in;
        std::vector<double> got;
        explicit snk(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } k("k");
    tdf::signal<double> sig("sig");
    s.out.bind(sig);
    k.in.bind(sig);
    ctx.run(3_us);
    ASSERT_EQ(k.got.size(), 4U);
    EXPECT_DOUBLE_EQ(k.got[0], 7.5);  // the two delay tokens
    EXPECT_DOUBLE_EQ(k.got[1], 7.5);
    EXPECT_DOUBLE_EQ(k.got[2], 1.0);
}

TEST(tdf_edge, multiple_readers_with_different_delays) {
    de::simulation_context ctx;
    struct src : tdf::module {
        tdf::out<double> out;
        double v = 0.0;
        explicit src(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(v++); }
    } s("s");
    struct snk : tdf::module {
        tdf::in<double> in;
        std::vector<double> got;
        explicit snk(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } fast("fast"), delayed("delayed");
    delayed.in.set_delay(3);
    tdf::signal<double> sig("sig");
    s.out.bind(sig);
    fast.in.bind(sig);
    delayed.in.bind(sig);
    ctx.run(5_us);
    ASSERT_EQ(fast.got.size(), 6U);
    ASSERT_EQ(delayed.got.size(), 6U);
    EXPECT_DOUBLE_EQ(fast.got[0], 0.0);
    EXPECT_DOUBLE_EQ(delayed.got[3], 0.0);  // shifted by three initial tokens
    EXPECT_DOUBLE_EQ(delayed.got[5], 2.0);
}

TEST(tdf_edge, unbound_write_throws) {
    de::simulation_context ctx;
    tdf::out<double> dangling("dangling");
    EXPECT_THROW(dangling.write(1.0), sca::util::error);
}

TEST(tdf_edge, two_writers_on_one_signal_rejected) {
    // Writer attachment happens at binding resolution (elaboration), so the
    // conflict is reported there with both port paths in the message.
    de::simulation_context ctx;
    struct src : tdf::module {
        tdf::out<double> out;
        explicit src(const de::module_name& nm) : tdf::module(nm), out("out") {
            set_timestep(1.0, de::time_unit::us);
        }
        void processing() override { out.write(1.0); }
    } w1("w1"), w2("w2");
    tdf::signal<double> sig("sig");
    w1.out.bind(sig);
    w2.out.bind(sig);
    try {
        ctx.elaborate();
        FAIL() << "expected the two-writer conflict to be reported";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("w1.out"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("w2.out"), std::string::npos);
    }
}

// ------------------------------------------------------------------ solver

TEST(solver_edge, linear_solver_rejects_nonlinear_system) {
    solver::equation_system sys;
    (void)sys.add_unknown("x");
    sys.add_nonlinear([](const std::vector<double>&, std::vector<double>&,
                         std::vector<solver::jacobian_entry>&) {});
    EXPECT_THROW(
        solver::linear_dae_solver(sys, solver::integration_method::backward_euler, 1e-6),
        sca::util::error);
}

TEST(solver_edge, equation_system_bounds_checked) {
    solver::equation_system sys;
    (void)sys.add_unknown("x");
    EXPECT_THROW(sys.add_rhs_constant(5, 1.0), sca::util::error);
    EXPECT_THROW(sys.add_input(5), sca::util::error);
    EXPECT_THROW(sys.set_input(0, 1.0), sca::util::error);  // no slot allocated
}

TEST(solver_edge, sweep_validation) {
    EXPECT_THROW((solver::sweep{0.0, 100.0, 10}).frequencies(), sca::util::error);
    EXPECT_THROW((solver::sweep{1.0, 100.0, 0}).frequencies(), sca::util::error);
    const auto one = solver::sweep{5.0, 5.0, 1}.frequencies();
    ASSERT_EQ(one.size(), 1U);
    EXPECT_DOUBLE_EQ(one[0], 5.0);
}

TEST(solver_edge, newton_failure_at_h_min_raises) {
    // A nonlinearity whose Jacobian is always singular: Newton cannot make
    // progress and must give up loudly instead of spinning.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    sys.add_b(x, x, 1.0);
    sys.add_nonlinear([x](const std::vector<double>& xi, std::vector<double>& r,
                          std::vector<solver::jacobian_entry>&) {
        r[x] += xi[x] >= 0.0 ? 1.0 : -1.0;  // discontinuous, zero derivative
    });
    solver::nonlinear_options opt;
    opt.h_init = 1e-6;
    opt.h_min = 1e-7;
    solver::nonlinear_dae_solver s(sys, opt);
    s.set_initial_state({0.0}, 0.0);
    EXPECT_THROW(s.advance_to(1e-3), sca::util::error);
}

// --------------------------------------------------------------------- eln

TEST(eln_edge, ideal_opamp_inverting_amplifier) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vsum = net.create_node("vsum");
    auto vout = net.create_node("vout");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(0.5));
    eln::resistor rin("rin", net, vin, vsum, 1000.0);
    eln::resistor rf("rf", net, vsum, vout, 10e3);
    eln::ideal_opamp op("op", net, gnd, vsum, vout);  // + input grounded
    sim.run(3_us);
    EXPECT_NEAR(net.voltage(vout), -5.0, 1e-9);       // gain -Rf/Rin
    EXPECT_NEAR(net.voltage(vsum), 0.0, 1e-12);       // virtual ground
}

TEST(eln_edge, gyrator_makes_inductor_from_capacitor) {
    // Gyrator loaded with C behaves as L = C/g^2: check the AC impedance
    // rises with frequency like an inductor.
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n1 = net.create_node("n1");
    auto n2 = net.create_node("n2");
    auto& is = bag.make<eln::isource>("is", net, gnd, n1, eln::waveform::dc(0.0));
    is.set_ac(1.0);
    const double g = 1e-3;
    const double c = 1e-6;
    bag.make<eln::gyrator>("gy", net, n1, gnd, n2, gnd, g);
    bag.make<eln::capacitor>("c", net, n2, gnd, c);
    bag.make<eln::resistor>("rp", net, n1, gnd, 1e9);  // keeps DC defined
    sim.elaborate();
    const double l_sim = c / (g * g);  // 1 H
    for (double f : {10.0, 100.0}) {
        const auto z =
            std::abs(solver::ac_sweep(net.equations(), n1.index(), {f, f, 1})[0].value);
        EXPECT_NEAR(z, 2.0 * std::numbers::pi * f * l_sim, 0.01 * z) << f;
    }
}

TEST(eln_edge, de_isource_injects_controlled_current) {
    de::simulation_context sim;
    de::signal<double> cmd("cmd", 0.0);
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    eln::de_isource inj("inj", net, gnd, n);
    inj.inp.bind(cmd);
    eln::resistor r("r", net, n, gnd, 2000.0);
    sim.run(2_us);
    EXPECT_NEAR(net.voltage(n), 0.0, 1e-12);
    cmd.write(1e-3);
    sim.run(3_us);
    EXPECT_NEAR(net.voltage(n), 2.0, 1e-9);
}

TEST(eln_edge, noise_scales_with_temperature) {
    auto psd_at = [](double kelvin) {
        de::simulation_context sim;
        sca::util::object_bag bag;
        eln::network net("net");
        net.set_timestep(1.0, de::time_unit::us);
        net.set_temperature(kelvin);
        auto gnd = net.ground();
        auto n = net.create_node("n");
        bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
        bag.make<eln::capacitor>("c", net, n, gnd, 1e-12);
        sim.elaborate();
        return solver::noise_sweep(net.equations(), n.index(), {100.0, 100.0, 1})
            .points[0]
            .total_psd;
    };
    EXPECT_NEAR(psd_at(600.0) / psd_at(300.0), 2.0, 1e-6);
}

TEST(eln_edge, vsource_ac_phase_propagates) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    auto& vs = bag.make<eln::vsource>("vs", net, n, gnd, eln::waveform::dc(0.0));
    vs.set_ac(2.0, 90.0);
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
    sim.elaborate();
    const auto pt = solver::ac_sweep(net.equations(), n.index(), {1e3, 1e3, 1})[0];
    EXPECT_NEAR(std::abs(pt.value), 2.0, 1e-12);
    EXPECT_NEAR(pt.phase_deg(), 90.0, 1e-9);
}

TEST(eln_edge, invalid_switch_parameters_rejected) {
    de::simulation_context sim;
    eln::network net("net");
    auto gnd = net.ground();
    auto n = net.create_node("n");
    EXPECT_THROW(eln::rswitch("sw", net, n, gnd, 10.0, 5.0), sca::util::error);
    EXPECT_THROW(eln::resistor("r", net, n, gnd, -5.0), sca::util::error);
    EXPECT_THROW(eln::capacitor("c", net, n, gnd, 0.0), sca::util::error);
}

// --------------------------------------------------------------------- lsf

TEST(lsf_edge, allpass_with_equal_degrees_has_unity_magnitude) {
    // H(s) = (s - w0)/(s + w0): numerator degree == denominator degree
    // exercises the direct-feedthrough path of the canonical realization.
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(0.0));
    src.set_ac(1.0);
    const double w0 = 2.0 * std::numbers::pi * 1e3;
    lsf::ltf_nd ap("ap", sys, u, y, {-w0, 1.0}, {w0, 1.0});
    sim.elaborate();
    for (double f : {100.0, 1e3, 10e3}) {
        const auto pt = solver::ac_sweep(sys.equations(), y.index(), {f, f, 1})[0];
        EXPECT_NEAR(std::abs(pt.value), 1.0, 1e-9) << f;
    }
    // Phase at w0: -90 degrees for this allpass.
    const auto at_f0 = solver::ac_sweep(sys.equations(), y.index(), {1e3, 1e3, 1})[0];
    EXPECT_NEAR(std::abs(at_f0.phase_deg()), 90.0, 0.1);
}

TEST(lsf_edge, ltf_initial_state_is_respected) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(0.0));
    const double w0 = 2.0 * std::numbers::pi * 1e3;
    lsf::ltf_nd lp("lp", sys, u, y, {1.0}, {1.0, 1.0 / w0});
    lp.set_initial_state({0.5});
    sim.run(1_us);
    // Output starts at b0 * x0 = 0.5 and decays.
    EXPECT_NEAR(sys.value(y), 0.5, 1e-2);
}

TEST(lsf_edge, runtime_gain_change_restamps) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(1.0));
    lsf::gain g("g", sys, u, y, 2.0);
    sim.run(2_us);
    EXPECT_NEAR(sys.value(y), 2.0, 1e-12);
    g.set_k(5.0);
    sim.run(2_us);
    EXPECT_NEAR(sys.value(y), 5.0, 1e-9);
}

TEST(lsf_edge, improper_transfer_function_rejected) {
    de::simulation_context sim;
    lsf::system sys("sys");
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    EXPECT_THROW(lsf::ltf_nd("bad", sys, u, y, {1.0, 1.0, 1.0}, {1.0, 1.0}),
                 sca::util::error);
    EXPECT_THROW(lsf::ltf_nd("bad2", sys, u, y, {1.0}, {1.0}), sca::util::error);
}

// --------------------------------------------------------------------- lib

TEST(lib_edge, dac_bit_errors_distort_transfer) {
    de::simulation_context sim;
    struct code_src : tdf::module {
        tdf::out<std::int64_t> out;
        std::int64_t v = -8;
        explicit code_src(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(v < 7 ? v++ : v); }
    } src("src");
    lib::dac ideal("ideal", 4, 1.0);
    lib::dac skewed("skewed", 4, 1.0);
    skewed.set_bit_errors({0.0, 0.0, 0.0, 0.2});  // MSB heavy by 20%
    struct rec : tdf::module {
        tdf::in<double> in;
        std::vector<double> got;
        explicit rec(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } r1("r1"), r2("r2");
    tdf::signal<std::int64_t> sc("sc");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(sc);
    ideal.code.bind(sc);
    skewed.code.bind(sc);
    ideal.out.bind(s1);
    skewed.out.bind(s2);
    r1.in.bind(s1);
    r2.in.bind(s2);
    sim.run(15_us);
    // Ideal staircase is uniform; the skewed MSB creates a jump at code 0.
    double ideal_step_max = 0.0, skewed_step_max = 0.0;
    for (std::size_t i = 1; i < r1.got.size(); ++i) {
        ideal_step_max = std::max(ideal_step_max, r1.got[i] - r1.got[i - 1]);
        skewed_step_max = std::max(skewed_step_max, r2.got[i] - r2.got[i - 1]);
    }
    EXPECT_NEAR(ideal_step_max, 2.0 / 16.0, 1e-12);
    EXPECT_GT(skewed_step_max, 2.0 / 16.0 * 1.5);
}

TEST(lib_edge, amplifier_offset_shifts_output) {
    de::simulation_context sim;
    struct zero_src : tdf::module {
        tdf::out<double> out;
        explicit zero_src(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(0.0); }
    } src("src");
    lib::amplifier amp("amp", 100.0);
    amp.set_offset(1e-3);
    struct rec : tdf::module {
        tdf::in<double> in;
        double last = 0.0;
        explicit rec(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { last = in.read(); }
    } r("r");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    amp.in.bind(s1);
    amp.out.bind(s2);
    r.in.bind(s2);
    sim.run(5_us);
    EXPECT_NEAR(r.last, 0.1, 1e-9);  // gain * offset
}

TEST(lib_edge, decimator_last_sample_mode) {
    de::simulation_context sim;
    struct ramp : tdf::module {
        tdf::out<double> out;
        double v = 0.0;
        explicit ramp(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(v++); }
    } src("src");
    lib::decimator dec("dec", 4, /*average=*/false);
    struct rec : tdf::module {
        tdf::in<double> in;
        std::vector<double> got;
        explicit rec(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } r("r");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    dec.in.bind(s1);
    dec.out.bind(s2);
    r.in.bind(s2);
    sim.run(8_us);
    ASSERT_GE(r.got.size(), 2U);
    EXPECT_DOUBLE_EQ(r.got[0], 3.0);
    EXPECT_DOUBLE_EQ(r.got[1], 7.0);
}

TEST(lib_edge, design_validation_errors) {
    EXPECT_THROW(lib::fir::design_lowpass(2, 0.1), sca::util::error);
    EXPECT_THROW(lib::fir::design_lowpass(31, 0.7), sca::util::error);
    EXPECT_THROW((void)lib::bilinear({1.0}, {}, 48e3), sca::util::error);
    EXPECT_THROW((void)lib::bilinear({1.0, 2.0, 3.0, 4.0}, {1.0}, 48e3), sca::util::error);
}

// -------------------------------------------------------- property: opamp --

class opamp_gain_sweep : public ::testing::TestWithParam<int> {};

TEST_P(opamp_gain_sweep, inverting_gain_tracks_resistor_ratio) {
    const double ratio = static_cast<double>(GetParam());
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vsum = net.create_node("vsum");
    auto vout = net.create_node("vout");
    bag.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(0.25));
    bag.make<eln::resistor>("rin", net, vin, vsum, 1000.0);
    bag.make<eln::resistor>("rf", net, vsum, vout, 1000.0 * ratio);
    bag.make<eln::ideal_opamp>("op", net, gnd, vsum, vout);
    sim.run(2_us);
    EXPECT_NEAR(net.voltage(vout), -0.25 * ratio, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ratios, opamp_gain_sweep, ::testing::Values(1, 2, 5, 10, 47));
