// Coverage round: analysis writers, corner duty cycles, controlled-source
// control branches, numeric helpers, and miscellaneous API contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <sstream>

#include "kernel/context.hpp"
#include "eln/multidomain.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/signal.hpp"
#include "lib/pwm.hpp"
#include "lib/sigma_delta.hpp"
#include "numeric/dense.hpp"
#include "solver/ac.hpp"
#include "solver/dc.hpp"
#include "solver/noise.hpp"
#include "tdf/converter.hpp"
#include "tdf/module.hpp"
#include "util/trace.hpp"
#include "util/waveform.hpp"
#include "util/object_bag.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
namespace num = sca::num;
using namespace sca::de::literals;

TEST(coverage, ac_write_emits_frequency_rows) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    auto& vs = bag.make<eln::vsource>("vs", net, n, gnd, eln::waveform::dc(0.0));
    vs.set_ac(1.0);
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
    sim.elaborate();

    const auto pts = sca::solver::ac_sweep(net.equations(), n.index(), {10.0, 1000.0, 3});
    sca::util::memory_trace mem;
    sca::solver::write(pts, mem);
    ASSERT_EQ(mem.times().size(), 3U);
    EXPECT_DOUBLE_EQ(mem.times()[0], 10.0);     // frequency on the abscissa
    EXPECT_NEAR(mem.column(0)[0], 0.0, 1e-9);   // 0 dB (direct source)

    // The channels stay valid after the write: a later sample() appends a
    // row and leaves the written ones alone.
    mem.sample(2000.0);
    ASSERT_EQ(mem.times().size(), 4U);
    EXPECT_DOUBLE_EQ(mem.times()[3], 2000.0);
    EXPECT_NEAR(mem.column(0)[0], 0.0, 1e-9);
}

TEST(coverage, noise_write_emits_per_source_columns) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    bag.make<eln::resistor>("ra", net, n, gnd, 1000.0);
    bag.make<eln::resistor>("rb", net, n, gnd, 1000.0);
    sim.elaborate();

    const auto result = sca::solver::noise_sweep(net.equations(), n.index(), {100.0, 1e3, 2});
    sca::util::memory_trace mem;
    sca::solver::write(result, mem);
    EXPECT_EQ(mem.channel_count(), 3U);  // total + two sources
    ASSERT_EQ(mem.times().size(), 2U);
    EXPECT_NEAR(mem.column(0)[0], mem.column(1)[0] + mem.column(2)[0], 1e-30);

    // The channels stay valid after the write: a later sample() appends a
    // row and leaves the written ones alone.
    mem.sample(2e3);
    ASSERT_EQ(mem.times().size(), 3U);
    EXPECT_EQ(mem.column(0)[0], result.points[0].total_psd);
    EXPECT_EQ(mem.column(2)[1], result.points[1].per_source[1]);
}

TEST(coverage, pwm_extreme_duty_cycles) {
    de::simulation_context sim;
    de::signal<double> duty("duty", 0.0);
    de::signal<bool> out("out", true);
    lib::pwm gen("gen", 10_us);
    gen.duty.bind(duty);
    gen.out.bind(out);
    sim.run(25_us);
    EXPECT_FALSE(out.read());  // 0%: permanently low
    duty.write(1.0);
    sim.run(30_us);
    EXPECT_TRUE(out.read());  // 100%: permanently high
}

TEST(coverage, cccs_controlled_by_inductor_branch) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    auto mid = net.create_node("mid");
    // Series R keeps the DC problem well-posed; the source steps after t=0
    // so the quiescent state starts at zero current.
    eln::vsource vs("vs", net, a, gnd,
                    eln::waveform::pulse(0.0, 1.0, 1e-6, 1e-9, 1e-9, 1.0, 2.0));
    eln::resistor rs("rs", net, a, mid, 10.0);
    eln::inductor l("l", net, mid, gnd, 1e-3);  // tau = L/R = 100 us
    eln::cccs mirror("mirror", net, l, gnd, b, 1.0);
    eln::resistor load("load", net, b, gnd, 1000.0);
    sim.run(101_us);
    // i_L = (V/R)(1 - e^-1) = 63.2 mA; mirrored into 1k -> 63.2 V.
    EXPECT_NEAR(net.voltage(b), 100.0 * (1.0 - std::exp(-1.0)), 0.5);
}

TEST(coverage, dense_matrix_helpers) {
    num::dense_matrix_d m(2, 2, 1.0);
    m.fill(3.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
    m.resize(3, 3, -1.0);
    EXPECT_EQ(m.rows(), 3U);
    EXPECT_DOUBLE_EQ(m(2, 2), -1.0);

    std::vector<double> x{1.0, -4.0, 2.0};
    EXPECT_DOUBLE_EQ(num::norm_inf(x), 4.0);
}

TEST(coverage, waveform_pwl_requires_sorted_points) {
    EXPECT_THROW(sca::util::waveform::pwl({{1.0, 0.0}, {0.5, 1.0}}), sca::util::error);
    EXPECT_THROW(sca::util::waveform::pwl({}), sca::util::error);
}

TEST(coverage, de_out_rate_bound_is_enforced) {
    de::simulation_context sim;
    de::signal<double> wire("wire", 0.0);
    struct bad_writer : tdf::module {
        tdf::de_out<double> out;
        explicit bad_writer(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(1.0, 3); }  // rate is 1
    } mod("mod");
    mod.out.bind(wire);
    EXPECT_THROW(sim.run(1_us), sca::util::error);
}

TEST(coverage, multidomain_rejects_nonpositive_parameters) {
    de::simulation_context sim;
    eln::network net("net");
    auto v = net.create_node("v", eln::nature::mechanical_translational);
    auto g = net.ground(eln::nature::mechanical_translational);
    EXPECT_THROW(eln::mass("m", net, v, 0.0), sca::util::error);
    EXPECT_THROW(eln::damper("d", net, v, g, -1.0), sca::util::error);
    EXPECT_THROW(eln::spring("k", net, v, g, 0.0), sca::util::error);
}

TEST(coverage, sigma_delta_rejects_unsupported_order) {
    de::simulation_context sim;
    EXPECT_THROW(lib::sigma_delta_modulator("m", 3, 1.0), sca::util::error);
    EXPECT_THROW(lib::sinc3_decimator("d", 1), sca::util::error);
}

TEST(coverage, time_modulo_and_division) {
    EXPECT_EQ((10_us) % (3_us), 1_us);
    EXPECT_EQ((10_us) / (3_us), 3);
    EXPECT_EQ(de::time::max().value_fs(), INT64_MAX);
}

TEST(coverage, dc_solve_regularizes_a_node_held_only_by_a_capacitor) {
    // A singular A (the node's only element is a capacitor) takes dc_solve's
    // pseudo-transient fallback, which reports it once.
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    bag.make<eln::capacitor>("c", net, n, gnd, 1e-9);  // floating-by-C: singular A
    sim.elaborate();
    sca::util::clear_reports();
    EXPECT_NEAR(sca::solver::dc_solve(net.equations(), 0.0)[n.index()], 0.0, 1e-9);
    ASSERT_EQ(sca::util::warnings().size(), 1U);
    EXPECT_NE(sca::util::warnings()[0].find("pseudo-transient"), std::string::npos);
}
