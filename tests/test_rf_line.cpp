// Tests for the PLL block (phase-2 RF library) and the lumped line
// macromodels (Figure 1 subscriber line).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/scenario.hpp"
#include "eln/line.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "lib/oscillator.hpp"
#include "lib/pll.hpp"
#include "solver/ac.hpp"
#include "tdf/port.hpp"
#include "util/measure.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
namespace core = sca::core;
using namespace sca::de::literals;

namespace {

struct recorder : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    explicit recorder(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { samples.push_back(in.read()); }
};

struct sink : tdf::module {
    tdf::in<double> in;
    explicit sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

}  // namespace

TEST(pll, locks_to_offset_reference) {
    de::simulation_context sim;
    const double f_ref = 10.2e3;
    const double f0 = 10e3;
    const double kv = 2e3;  // Hz/V
    lib::sine_source ref("ref", 1.0, f_ref);
    ref.set_timestep(2.0, de::time_unit::us);  // fs = 500 kHz
    lib::pll loop("loop", f0, kv, 1000.0);
    recorder ctl("ctl");
    sink vco_sink("vco_sink");
    tdf::signal<double> s_ref("s_ref"), s_out("s_out"), s_ctl("s_ctl");
    ref.out.bind(s_ref);
    loop.ref.bind(s_ref);
    loop.out.bind(s_out);
    loop.control.bind(s_ctl);
    vco_sink.in.bind(s_out);
    ctl.in.bind(s_ctl);

    sim.run(300_ms);
    // Locked: the mean control voltage carries the frequency offset (the
    // instantaneous value ripples at 2x the carrier through the PD).
    std::vector<double> tail(ctl.samples.end() - 5000, ctl.samples.end());
    const double vctrl = sca::util::mean(tail);
    EXPECT_NEAR(f0 + kv * vctrl, f_ref, 25.0);
    EXPECT_NEAR(vctrl, (f_ref - f0) / kv, 0.02);
}

TEST(pll, free_runs_at_f0_without_input) {
    de::simulation_context sim;
    lib::waveform_source zero("zero", sca::util::waveform::dc(0.0));
    zero.set_timestep(2.0, de::time_unit::us);
    lib::pll loop("loop", 10e3, 2e3, 500.0);
    sink s1("s1"), s2("s2");
    tdf::signal<double> s_ref("s_ref"), s_out("s_out"), s_ctl("s_ctl");
    zero.out.bind(s_ref);
    loop.ref.bind(s_ref);
    loop.out.bind(s_out);
    loop.control.bind(s_ctl);
    s1.in.bind(s_out);
    s2.in.bind(s_ctl);
    sim.run(50_ms);
    EXPECT_NEAR(loop.vco_frequency(), 10e3, 1.0);
}

TEST(pll, rejects_insufficient_sample_rate) {
    de::simulation_context sim;
    lib::waveform_source zero("zero", sca::util::waveform::dc(0.0));
    zero.set_timestep(100.0, de::time_unit::us);  // fs = 10 kHz < 2.5 f0
    lib::pll loop("loop", 10e3, 1e3, 100.0);
    sink s1("s1"), s2("s2");
    tdf::signal<double> s_ref("s_ref"), s_out("s_out"), s_ctl("s_ctl");
    zero.out.bind(s_ref);
    loop.ref.bind(s_ref);
    loop.out.bind(s_out);
    loop.control.bind(s_ctl);
    s1.in.bind(s_out);
    s2.in.bind(s_ctl);
    EXPECT_THROW(sim.elaborate(), sca::util::error);
}

TEST(rc_line, dc_resistance_and_delay_scale_with_length) {
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(10.0, de::time_unit::ns);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    eln::vsource vs("vs", net, a, gnd,
                    eln::waveform::pulse(0.0, 1.0, 100e-9, 1e-9, 1e-9, 1.0, 2.0));
    eln::rc_line line("line", net, a, b, gnd, 1000.0, 1e-9, 16);
    eln::resistor load("load", net, b, gnd, 1e6);

    sim.run(50_us);  // >> line tau: settled
    // DC: divider of the line resistance against the load.
    EXPECT_NEAR(net.voltage(b), 1e6 / (1e6 + 1000.0), 1e-6);
}

TEST(rc_line, elmore_delay_matches_theory) {
    // Elmore delay of a distributed RC line is ~0.5 R C; the lumped ladder
    // should land near it (within discretization error).
    de::simulation_context sim;
    eln::network net("net");
    net.set_timestep(5.0, de::time_unit::ns);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    const double r = 10e3, c = 10e-9;  // RC = 100 us
    eln::vsource vs("vs", net, a, gnd,
                    eln::waveform::pulse(0.0, 1.0, 1e-6, 1e-9, 1e-9, 10.0, 20.0));
    eln::rc_line line("line", net, a, b, gnd, r, c, 32);
    eln::resistor load("load", net, b, gnd, 1e9);

    sca::util::memory_trace rec;
    core::record(sim, rec, 500_ns);
    rec.add_channel("vb", [&] { return net.voltage(b); });
    sim.run(400_us);
    const double t50 = sca::util::first_rising_crossing(
        rec.times(), rec.column(0), 0.5);
    // 50% crossing of a distributed RC step is ~0.38 RC after the edge.
    EXPECT_NEAR(t50 - 1e-6, 0.38 * r * c, 0.08 * r * c);
}

TEST(rc_line, internal_nodes_are_probeable) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    bag.make<eln::vsource>("vs", net, a, gnd, eln::waveform::dc(4.0));
    auto& line = bag.make<eln::rc_line>("line", net, a, b, gnd, 1000.0, 1e-9, 4);
    bag.make<eln::resistor>("load", net, b, gnd, 1000.0);
    sim.run(20_us);
    // Voltage decreases monotonically along the ladder toward the load.
    double prev = net.voltage(a);
    for (std::size_t i = 0; i + 1 < line.sections(); ++i) {
        const double v = net.voltage(line.internal(i));
        EXPECT_LT(v, prev);
        prev = v;
    }
    EXPECT_LT(net.voltage(b), prev);
    EXPECT_NEAR(net.voltage(b), 2.0, 1e-6);  // 1k line vs 1k load divider
}

TEST(rlgc_line, matched_termination_passes_ac_flatly) {
    // A lossless LC line terminated in its characteristic impedance shows a
    // flat magnitude response well below the section cutoff.
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    const double l = 1e-3, c = 1e-9;  // Z0 = 1 kohm
    const double z0 = std::sqrt(l / c);
    auto& vs = bag.make<eln::vsource>("vs", net, a, gnd, eln::waveform::dc(0.0));
    vs.set_ac(1.0);
    bag.make<eln::rlgc_line>("line", net, a, b, gnd, 0.0, l, 0.0, c, 16);
    bag.make<eln::resistor>("term", net, b, gnd, z0);
    sim.elaborate();

    // Section resonance ~ 1/(2 pi sqrt(l/n * c/n)) = n/(2 pi sqrt(lc)) ≈ 2.5 MHz.
    const auto& sys = net.equations();
    const auto low = std::abs(sca::solver::ac_sweep(sys, b.index(), {1e3, 1e3, 1})[0].value);
    const auto mid = std::abs(sca::solver::ac_sweep(sys, b.index(), {50e3, 50e3, 1})[0].value);
    EXPECT_NEAR(low, mid, 0.05 * low);  // flat passband
    EXPECT_GT(low, 0.5);                // matched line delivers the signal
}
