// Linear signal-flow view tests: primitive relations, integrators, transfer
// functions, zero-pole, state-space, converters.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <string>

#include "core/scenario.hpp"
#include "kernel/signal.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "lsf/state_space.hpp"
#include "lsf/view.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace lsf = sca::lsf;
namespace core = sca::core;
using namespace sca::de::literals;

TEST(lsf, gain_add_sub_relations) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto g = sys.create_signal("g");
    auto s = sys.create_signal("s");
    auto d = sys.create_signal("d");
    lsf::source src("src", sys, u, lsf::waveform::dc(2.0));
    lsf::gain k("k", sys, u, g, 3.0);
    lsf::add a("a", sys, u, g, s);
    lsf::sub m("m", sys, s, u, d);

    sim.run(3_us);
    EXPECT_NEAR(sys.value(g), 6.0, 1e-12);
    EXPECT_NEAR(sys.value(s), 8.0, 1e-12);
    EXPECT_NEAR(sys.value(d), 6.0, 1e-12);
}

TEST(lsf, integrator_ramp) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(1000.0));
    lsf::integ integ("i", sys, u, y, 1.0, 0.0);

    sim.run(1_ms);
    EXPECT_NEAR(sys.value(y), 1.0, 1e-6);  // 1000 * 1e-3
}

TEST(lsf, integrator_initial_condition) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(0.0));
    lsf::integ integ("i", sys, u, y, 1.0, 2.5);

    sim.run(10_us);
    EXPECT_NEAR(sys.value(y), 2.5, 1e-9);
}

TEST(lsf, differentiator_of_ramp) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    // Trapezoidal integration rings on a pure differentiator (marginally
    // stable difference equation); backward Euler is the right choice here.
    sys.set_integration_method(sca::solver::integration_method::backward_euler);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u,
                    lsf::waveform::custom([](double t) { return 5000.0 * t; }));
    lsf::dot d("d", sys, u, y, 1.0);

    sim.run(100_us);
    EXPECT_NEAR(sys.value(y), 5000.0, 1.0);
}

TEST(lsf, first_order_lowpass_step) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    const double fc = 1000.0;  // tau ~= 159 us
    const auto tf = lsf::filters::first_order_lowpass(fc);
    lsf::source src("src", sys, u, lsf::waveform::dc(1.0));
    lsf::ltf_nd f("f", sys, u, y, tf.num, tf.den);

    sca::util::memory_trace rec;
    core::record(sim, rec, 10_us);
    rec.add_channel("y", [&] { return sys.value(y); });
    sim.run(2_ms);

    const double tau = 1.0 / (2.0 * std::numbers::pi * fc);
    const auto v = rec.column(0);
    // Compare a mid-trajectory point against the analytic charging curve.
    const double t_probe = rec.times()[50];
    EXPECT_NEAR(v[50], 1.0 - std::exp(-t_probe / tau), 5e-3);
    EXPECT_NEAR(v.back(), 1.0, 1e-3);
}

TEST(lsf, second_order_bandpass_rejects_dc) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    const auto tf = lsf::filters::bandpass_biquad(10e3, 2.0);
    lsf::source src("src", sys, u, lsf::waveform::dc(1.0));
    lsf::ltf_nd f("f", sys, u, y, tf.num, tf.den);

    sim.run(2_ms);
    EXPECT_NEAR(sys.value(y), 0.0, 1e-3);
}

TEST(lsf, bandpass_passes_center_frequency) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(200.0, de::time_unit::ns);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    const double f0 = 10e3;
    const auto tf = lsf::filters::bandpass_biquad(f0, 2.0);
    lsf::source src("src", sys, u, lsf::waveform::sine(1.0, f0));
    lsf::ltf_nd f("f", sys, u, y, tf.num, tf.den);

    sca::util::memory_trace rec;
    core::record(sim, rec, 5_us);
    rec.add_channel("y", [&] { return sys.value(y); });
    sim.run(3_ms);  // settle, then measure

    const auto v = rec.column(0);
    double amp = 0.0;
    for (std::size_t i = v.size() / 2; i < v.size(); ++i) amp = std::max(amp, std::abs(v[i]));
    EXPECT_NEAR(amp, 1.0, 0.03);  // unity gain at center
}

TEST(lsf, ltf_zp_matches_nd_realization) {
    // H(s) = g (s - z) / ((s - p1)(s - p2)) built both ways must agree.
    const std::vector<std::complex<double>> zeros{{-1000.0, 0.0}};
    const std::vector<std::complex<double>> poles{{-2000.0, 3000.0}, {-2000.0, -3000.0}};

    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y1 = sys.create_signal("y1");
    auto y2 = sys.create_signal("y2");
    lsf::source src("src", sys, u, lsf::waveform::sine(1.0, 500.0));
    lsf::ltf_zp zp("zp", sys, u, y1, zeros, poles, 2.0);
    const auto num = [&] {
        auto n = lsf::poly_from_roots(zeros);
        for (double& c : n) c *= 2.0;
        return n;
    }();
    lsf::ltf_nd nd("nd", sys, u, y2, num, lsf::poly_from_roots(poles));

    sca::util::memory_trace rec;
    core::record(sim, rec, 10_us);
    rec.add_channel("y1", [&] { return sys.value(y1); });
    rec.add_channel("y2", [&] { return sys.value(y2); });
    sim.run(5_ms);

    const auto a = rec.column(0);
    const auto b = rec.column(1);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST(lsf, poly_from_roots_requires_conjugate_closure) {
    EXPECT_THROW((void)lsf::poly_from_roots({{1.0, 2.0}}), sca::util::error);
    const auto p = lsf::poly_from_roots({{-1.0, 2.0}, {-1.0, -2.0}});
    ASSERT_EQ(p.size(), 3U);
    EXPECT_NEAR(p[0], 5.0, 1e-12);   // (s+1)^2 + 4 = s^2 + 2s + 5
    EXPECT_NEAR(p[1], 2.0, 1e-12);
    EXPECT_NEAR(p[2], 1.0, 1e-12);
}

TEST(lsf, state_space_matches_transfer_function) {
    // dx/dt = -w x + w u, y = x  == first-order lowpass.
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y_ss = sys.create_signal("y_ss");
    auto y_tf = sys.create_signal("y_tf");
    const double w = 2.0 * std::numbers::pi * 1000.0;
    sca::num::dense_matrix_d a(1, 1), b(1, 1), c(1, 1), d(1, 1);
    a(0, 0) = -w;
    b(0, 0) = w;
    c(0, 0) = 1.0;
    d(0, 0) = 0.0;
    lsf::source src("src", sys, u, lsf::waveform::dc(1.0));
    lsf::state_space ss("ss", sys, {u}, {y_ss}, a, b, c, d);
    const auto tf = lsf::filters::first_order_lowpass(1000.0);
    lsf::ltf_nd f("f", sys, u, y_tf, tf.num, tf.den);

    sca::util::memory_trace rec;
    core::record(sim, rec, 20_us);
    rec.add_channel("ss", [&] { return sys.value(y_ss); });
    rec.add_channel("tf", [&] { return sys.value(y_tf); });
    sim.run(1_ms);

    const auto va = rec.column(0);
    const auto vb = rec.column(1);
    for (std::size_t i = 0; i < va.size(); ++i) EXPECT_NEAR(va[i], vb[i], 1e-6);
}

TEST(lsf, double_driver_is_rejected) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    lsf::source s1("s1", sys, u, lsf::waveform::dc(1.0));
    lsf::source s2("s2", sys, u, lsf::waveform::dc(2.0));
    EXPECT_THROW(sim.run(1_us), sca::util::error);
}

TEST(lsf, undriven_signal_is_rejected) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::gain g("g", sys, u, y, 1.0);  // u has no driver
    EXPECT_THROW(sim.run(1_us), sca::util::error);
}

TEST(lsf, tdf_converters_roundtrip) {
    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::from_tdf from("from", sys, u);
    lsf::gain g("g", sys, u, y, -2.0);
    lsf::to_tdf to("to", sys, y);

    // External TDF stimulus / collector.
    struct stim : sca::tdf::module {
        sca::tdf::out<double> out;
        explicit stim(const de::module_name& nm) : sca::tdf::module(nm), out("out") {}
        void processing() override { out.write(static_cast<double>(activation_count())); }
    } s("s");
    struct sink : sca::tdf::module {
        sca::tdf::in<double> in;
        std::vector<double> got;
        explicit sink(const de::module_name& nm) : sca::tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } k("k");
    sca::tdf::signal<double> sin_("sin"), sout_("sout");
    s.out.bind(sin_);
    from.inp.bind(sin_);
    to.outp.bind(sout_);
    k.in.bind(sout_);

    sim.run(4_us);
    ASSERT_EQ(k.got.size(), 5U);
    EXPECT_DOUBLE_EQ(k.got[0], 0.0);
    EXPECT_DOUBLE_EQ(k.got[3], -6.0);
}

TEST(lsf, initial_state_is_exact_for_every_block_kind) {
    // The t = 0 state pins each dynamic row to its block's initial value and
    // solves the algebraic rows around it; dyadic values make it exact.
    for (const auto method : {sca::solver::integration_method::trapezoidal,
                              sca::solver::integration_method::backward_euler}) {
        de::simulation_context sim;
        de::signal<double> level("level", 1.5);
        lsf::system sys("sys");
        sys.set_timestep(1.0, de::time_unit::us);
        sys.set_integration_method(method);
        auto u = sys.create_signal("u");
        auto ramp = sys.create_signal("ramp");
        auto y_integ = sys.create_signal("y_integ");
        auto y_dot = sys.create_signal("y_dot");
        auto y_nd = sys.create_signal("y_nd");
        auto y_nd_direct = sys.create_signal("y_nd_direct");
        auto y_zp = sys.create_signal("y_zp");
        auto y_ss0 = sys.create_signal("y_ss0");
        auto y_ss1 = sys.create_signal("y_ss1");
        auto y_tdf = sys.create_signal("y_tdf");
        auto y_de = sys.create_signal("y_de");
        lsf::source src("src", sys, u, lsf::waveform::dc(2.0));
        lsf::source slope("slope", sys, ramp,
                          lsf::waveform::custom([](double t) { return 5000.0 * t; }));
        lsf::integ integ("integ", sys, u, y_integ, 1.0, 0.375);
        lsf::dot dot("dot", sys, ramp, y_dot, 3.0);  // pinned to 0, not 15000
        lsf::ltf_nd nd("nd", sys, u, y_nd, {1.0, 2.0}, {4.0, 2.0, 1.0});
        nd.set_initial_state({0.25, -0.5});
        lsf::ltf_nd direct("direct", sys, u, y_nd_direct, {1.0, 0.0, 2.0}, {4.0, 2.0, 1.0});
        direct.set_initial_state({0.25, -0.5});
        lsf::ltf_zp zp("zp", sys, u, y_zp, {{-1000.0, 0.0}},
                       {{-2000.0, 3000.0}, {-2000.0, -3000.0}}, 2.0);
        sca::num::dense_matrix_d a(2, 2), b(2, 1), c(2, 2), d(2, 1);
        a(0, 0) = -1.0;
        a(1, 1) = -2.0;
        b(0, 0) = 1.0;
        c(0, 0) = 1.0;
        c(0, 1) = 0.5;
        c(1, 1) = 2.0;
        d(0, 0) = 0.25;
        lsf::state_space ss("ss", sys, {u}, {y_ss0, y_ss1}, a, b, c, d);
        ss.set_initial_state({0.5, -0.25});
        lsf::from_tdf from_tdf("from_tdf", sys, y_tdf);
        lsf::from_de from_de("from_de", sys, y_de);
        from_de.inp.bind(level);

        struct stim : sca::tdf::module {
            sca::tdf::out<double> out;
            explicit stim(const de::module_name& nm) : sca::tdf::module(nm), out("out") {}
            void processing() override { out.write(0.625); }
        } feed("feed");
        sca::tdf::signal<double> wire("wire");
        feed.out.bind(wire);
        from_tdf.inp.bind(wire);

        sca::util::memory_trace rec;
        core::record(sim, rec, 1_us);
        for (const auto& s : {y_integ, y_dot, y_nd, y_nd_direct, y_zp, y_ss0, y_ss1, y_tdf, y_de}) {
            rec.add_channel("y", [&sys, s] { return sys.value(s); });
        }
        sim.run(3_us);

        const auto at_t0 = [&rec](std::size_t channel) { return rec.column(channel).front(); };
        EXPECT_EQ(at_t0(0), 0.375);  // integ y0
        EXPECT_EQ(at_t0(1), 0.0);    // dot
        EXPECT_EQ(at_t0(2), -0.75);  // 1 x0 + 2 x1
        EXPECT_EQ(at_t0(3), 4.25);   // -7 x0 - 4 x1 + 2 u (direct feed-through)
        EXPECT_EQ(at_t0(4), 0.0);    // ltf_zp from zero state, strictly proper
        EXPECT_EQ(at_t0(5), 0.875);  // x0 + 0.5 x1 + 0.25 u
        EXPECT_EQ(at_t0(6), -0.5);   // 2 x1
        EXPECT_EQ(at_t0(7), 0.625);  // first TDF sample
        EXPECT_EQ(at_t0(8), 1.5);    // DE level at t = 0
    }
}

TEST(lsf, destroyed_block_leaves_the_system) {
    {
        // A destroyed sink leaves a running system.
        de::simulation_context sim;
        de::signal<double> out("out", 0.0);
        lsf::system sys("sys");
        sys.set_timestep(1.0, de::time_unit::us);
        auto u = sys.create_signal("u");
        lsf::source src("src", sys, u, lsf::waveform::dc(2.0));
        auto sink = std::make_unique<lsf::to_de>("sink", sys, u);
        sink->outp.bind(out);
        sim.run(5_us);
        EXPECT_EQ(out.read(), 2.0);
        sink.reset();
        sim.run(5_us);
        EXPECT_EQ(sys.value(u), 2.0);
    }
    {
        // A destroyed driver leaves its signal undriven: the named error.
        de::simulation_context sim;
        lsf::system sys("sys");
        sys.set_timestep(1.0, de::time_unit::us);
        auto u = sys.create_signal("u");
        auto y = sys.create_signal("y");
        lsf::source src("src", sys, u, lsf::waveform::dc(2.0));
        auto k = std::make_unique<lsf::gain>("k", sys, u, y, 3.0);
        sim.run(5_us);
        EXPECT_EQ(sys.value(y), 6.0);
        k.reset();
        try {
            sim.run(5_us);
            ADD_FAILURE() << "a signal without a driver must be refused";
        } catch (const sca::util::error& e) {
            EXPECT_NE(std::string(e.what()).find("lsf signal 'y' has no driver"),
                      std::string::npos)
                << e.what();
        }
    }
    for (const bool system_first : {true, false}) {
        // Either teardown order, after the system has built and stepped.
        de::simulation_context sim;
        auto sys = std::make_unique<lsf::system>("sys");
        sys->set_timestep(1.0, de::time_unit::us);
        auto u = sys->create_signal("u");
        auto y = sys->create_signal("y");
        auto src = std::make_unique<lsf::source>("src", *sys, u, lsf::waveform::dc(1.0));
        auto k = std::make_unique<lsf::gain>("k", *sys, u, y, 2.0);
        sim.run(2_us);
        EXPECT_EQ(sys->value(y), 2.0);
        if (system_first) sys.reset();
        k.reset();
        src.reset();
        sys.reset();
    }
}
