// Cross-MoC integration tests: Figure-1-shaped pipelines mixing DE, TDF,
// LSF, and ELN models, closed loops across MoC boundaries, and tracing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/clock.hpp"
#include "lib/amplifier.hpp"
#include "lib/converters.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "lib/sigma_delta.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "lsf/view.hpp"
#include "util/measure.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
namespace core = sca::core;
using namespace sca::de::literals;

namespace {

struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    explicit collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override {
        for (unsigned k = 0; k < in.rate(); ++k) samples.push_back(in.read(k));
    }
};

}  // namespace

TEST(integration, tdf_lsf_eln_chain_propagates_signal) {
    // Signal path crossing three MoCs: TDF sine -> LSF lowpass -> ELN RC
    // line -> TDF probe, all in a single cluster.
    de::simulation_context sim;
    sca::util::object_bag bag;

    lib::sine_source src("src", 1.0, 1e3);
    src.set_timestep(5.0, de::time_unit::us);

    lsf::system filt("filt");
    auto u = filt.create_signal("u");
    auto y = filt.create_signal("y");
    lsf::from_tdf from("from", filt, u);
    const auto tf = lsf::filters::first_order_lowpass(50e3);  // wide open
    lsf::ltf_nd lp("lp", filt, u, y, tf.num, tf.den);
    lsf::to_tdf to("to", filt, y);

    eln::network line("line");
    auto gnd = line.ground();
    auto n1 = line.create_node("n1");
    auto n2 = line.create_node("n2");
    auto& drv = bag.make<eln::tdf_vsource>("drv", line, n1, gnd);
    bag.make<eln::resistor>("rs", line, n1, n2, 100.0);
    bag.make<eln::resistor>("rl", line, n2, gnd, 100.0);
    auto& probe = bag.make<eln::tdf_vsink>("probe", line, n2, gnd);

    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
    src.out.bind(s1);
    from.inp.bind(s1);
    to.outp.bind(s2);
    drv.inp.bind(s2);
    probe.outp.bind(s3);
    sink.in.bind(s3);

    sim.run(5_ms);
    // Divider halves the filtered sine: amplitude ~0.5 in steady state.
    std::vector<double> tail(sink.samples.end() - 400, sink.samples.end());
    double amp = 0.0;
    for (double v : tail) amp = std::max(amp, std::abs(v));
    EXPECT_NEAR(amp, 0.5, 0.02);
}

TEST(integration, de_controller_closes_loop_over_analog_plant) {
    // Bang-bang temperature-style control: ELN RC integrator charges, a TDF
    // comparator publishes to DE, the DE controller toggles the charging
    // switch. The loop must regulate the capacitor voltage near setpoint.
    de::simulation_context sim;
    sca::util::object_bag bag;

    de::signal<bool> heater_on("heater_on", true);
    de::signal<bool> above("above", false);

    eln::network plant("plant");
    plant.set_timestep(10.0, de::time_unit::us);
    auto gnd = plant.ground();
    auto vsup = plant.create_node("vsup");
    auto vc = plant.create_node("vc");
    bag.make<eln::vsource>("vs", plant, vsup, gnd, eln::waveform::dc(10.0));
    auto& sw = bag.make<eln::de_rswitch>("sw", plant, vsup, vc, 1000.0, 1e9);
    sw.ctrl.bind(heater_on);
    bag.make<eln::capacitor>("c", plant, vc, gnd, 1e-6);
    bag.make<eln::resistor>("leak", plant, vc, gnd, 2000.0);
    auto& probe = bag.make<eln::tdf_vsink>("probe", plant, vc, gnd);

    lib::comparator cmp("cmp", 5.0, 0.2);
    cmp.enable_de_output(above);

    tdf::signal<double> s("s");
    probe.outp.bind(s);
    cmp.in.bind(s);
    tdf::signal<bool> sdummy("sdummy");
    cmp.out.bind(sdummy);
    struct bool_sink : tdf::module {
        tdf::in<bool> in;
        explicit bool_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { (void)in.read(); }
    } bsink("bsink");
    bsink.in.bind(sdummy);

    // DE controller: heater off when above setpoint.
    struct controller : de::module {
        de::in<bool> above_in;
        de::out<bool> heat_out;
        int switches = 0;
        explicit controller(const de::module_name& nm)
            : de::module(nm), above_in("above_in"), heat_out("heat_out") {
            declare_method("ctl", [this] {
                heat_out.write(!above_in.read());
                ++switches;
            }).sensitive(above_in);
        }
    } ctl("ctl");
    ctl.above_in.bind(above);
    ctl.heat_out.bind(heater_on);

    sca::util::memory_trace rec;
    core::record(sim, rec, 100_us);
    rec.add_channel("vc", [&] { return plant.voltage(vc); });
    sim.run(100_ms);

    const auto v = rec.column(0);
    // After the first rise, regulation holds the voltage near 5 V.
    std::vector<double> tail(v.end() - 400, v.end());
    for (double x : tail) {
        EXPECT_GT(x, 4.0);
        EXPECT_LT(x, 6.2);
    }
    EXPECT_GT(ctl.switches, 4);  // the loop actually toggled repeatedly
}

TEST(integration, codec_path_sigma_delta_to_fir) {
    // Figure-1 codec slice: sine -> sigma-delta -> sinc3 decimator -> FIR.
    de::simulation_context sim;
    lib::sine_source src("src", 0.5, 500.0);
    src.set_timestep(2.0, de::time_unit::us);  // 500 kHz modulator rate
    lib::sigma_delta_modulator mod("mod", 2, 1.0);
    lib::sinc3_decimator dec("dec", 32);  // -> 15.625 kHz
    lib::fir post("post", lib::fir::design_lowpass(33, 0.2));
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3"), s4("s4");
    src.out.bind(s1);
    mod.in.bind(s1);
    mod.out.bind(s2);
    dec.in.bind(s2);
    dec.out.bind(s3);
    post.in.bind(s3);
    post.out.bind(s4);
    sink.in.bind(s4);

    sim.run(60_ms);
    std::vector<double> tail(sink.samples.end() - 512, sink.samples.end());
    const double sinad = sca::util::sinad_db(tail, 500e3 / 32.0);
    EXPECT_GT(sinad, 30.0);
    double amp = 0.0;
    for (double v : tail) amp = std::max(amp, std::abs(v));
    EXPECT_NEAR(amp, 0.5, 0.05);
}

TEST(integration, trace_files_capture_mixed_signals) {
    const std::string path = ::testing::TempDir() + "sca_integration_trace.dat";
    {
        de::simulation_context sim;
        lib::sine_source src("src", 1.0, 1e3);
        src.set_timestep(10.0, de::time_unit::us);
        collector sink("sink");
        tdf::signal<double> s("s");
        src.out.bind(s);
        sink.in.bind(s);

        sca::util::tabular_trace_file file(path);
        file.add_channel("sine", [&s] { return s.last_value(); });
        core::record(sim, file, 100_us);
        sim.run(1_ms);
        file.close();
    }
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "%time sine");
    int rows = 0;
    std::string line;
    while (std::getline(in, line)) ++rows;
    EXPECT_GE(rows, 10);
    std::remove(path.c_str());
}

TEST(integration, multiple_networks_in_one_simulation) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net_a("net_a");
    net_a.set_timestep(1.0, de::time_unit::us);
    auto ga = net_a.ground();
    auto na = net_a.create_node("na");
    bag.make<eln::isource>("ia", net_a, ga, na, eln::waveform::dc(1e-3));
    bag.make<eln::resistor>("ra", net_a, na, ga, 1000.0);

    eln::network net_b("net_b");
    net_b.set_timestep(3.0, de::time_unit::us);
    auto gb = net_b.ground();
    auto nb = net_b.create_node("nb");
    bag.make<eln::isource>("ib", net_b, gb, nb, eln::waveform::dc(2e-3));
    bag.make<eln::resistor>("rb", net_b, nb, gb, 1000.0);

    sim.run(30_us);
    EXPECT_NEAR(net_a.voltage(na), 1.0, 1e-9);
    EXPECT_NEAR(net_b.voltage(nb), 2.0, 1e-9);
    EXPECT_EQ(net_a.activation_count(), 31U);
    EXPECT_EQ(net_b.activation_count(), 11U);
}

TEST(integration, de_clock_gates_tdf_processing) {
    // A DE clock's value gates a TDF accumulator through a de_in port.
    de::simulation_context sim;
    de::clock clk("clk", 20_us);

    struct gated_accumulator : tdf::module {
        tdf::de_in<bool> gate;
        tdf::out<double> out;
        double acc = 0.0;
        explicit gated_accumulator(const de::module_name& nm)
            : tdf::module(nm), gate("gate"), out("out") {}
        void set_attributes() override { set_timestep(5.0, de::time_unit::us); }
        void processing() override {
            if (gate.read()) acc += 1.0;
            out.write(acc);
        }
    } acc("acc");
    collector sink("sink");
    tdf::signal<double> s("s");
    acc.gate.bind(clk.sig());
    acc.out.bind(s);
    sink.in.bind(s);

    sim.run(100_us);
    // Clock high 50% of the time: accumulator counts roughly half the 21
    // activations.
    const double final = sink.samples.back();
    EXPECT_GE(final, 8.0);
    EXPECT_LE(final, 13.0);
}
