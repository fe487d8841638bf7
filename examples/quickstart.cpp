// Quickstart: a mixed-signal "hello world" on the scenario API, built
// hierarchically.
//
// A TDF sine source drives an ELN RC lowpass; a comparator squares the
// filtered wave back up and publishes it to the DE world, where a process
// counts edges.  The RC is the reusable eln::rc_lowpass subcircuit bound by
// terminals, and every TDF edge is wired with connect() — no intermediate
// tdf::signal declarations anywhere.  Demonstrates the three worlds
// (dataflow, conservative continuous-time, discrete-event), hierarchical
// composition, and the scenario/testbench lifecycle in ~90 lines.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/subcircuit.hpp"
#include "lib/converters.hpp"
#include "lib/oscillator.hpp"
#include "tdf/connect.hpp"
#include "tdf/port.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace sca::de::literals;

namespace {

struct edge_counter : de::module {
    de::in<bool> in;
    int edges = 0;
    explicit edge_counter(const de::module_name& nm) : de::module(nm), in("in") {
        declare_method("count", [this] { ++edges; }).sensitive(in).dont_initialize();
    }
};

struct null_bool_sink : tdf::module {
    tdf::in<bool> in;
    explicit null_bool_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

}  // namespace

int main() {
    auto quickstart = core::scenario::define(
        "quickstart", core::params{{"f_sine", 1e3}, {"r", 1e3}, {"c", 100e-9}},
        [](core::testbench& tb, const core::params& p) {
            // 1. Dataflow stimulus: sine sampled at 1 MHz.
            auto& src = tb.make<lib::sine_source>("src", 1.0, p.number("f_sine"));
            src.set_timestep(1.0, de::time_unit::us);

            // 2. Conservative-law RC lowpass (fc ~ 1.6 kHz at defaults) as a
            //    reusable subcircuit bound through its terminals.
            auto& net = tb.make<eln::network>("net");
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            auto& drive = tb.make<eln::tdf_vsource>("drive", net, vin, gnd);
            auto& rc = tb.make<eln::rc_lowpass>("rc", net, p.number("r"), p.number("c"));
            rc.in(vin);
            rc.out(vout);
            rc.ref(gnd);
            auto& probe = tb.make<eln::tdf_vsink>("probe", net, vout, gnd);

            // 3. Back to digital: comparator with hysteresis -> DE counter.
            auto& cmp = tb.make<lib::comparator>("cmp", 0.0, 0.05);
            auto& square = tb.make<de::signal<bool>>("square", false);
            cmp.enable_de_output(square);
            auto& counter = tb.make<edge_counter>("counter");
            counter.in.bind(square);
            auto& bsink = tb.make<null_bool_sink>("bsink");

            // TDF wiring: connect() creates the intermediate signals.
            auto& s_sine = connect(src.out, drive.inp);
            connect(probe.outp, cmp.in);
            connect(cmp.out, bsink.in);

            // Probes recorded every 10 us; measurements read at run end.
            tb.probe("sine", s_sine);
            tb.probe("filtered", [&net, vout] { return net.voltage(vout); });
            tb.probe("square", square);
            tb.set_sample_period(10_us);
            tb.set_stop_time(10_ms);
            tb.measure("vout_amplitude", [&net, vout] { return net.voltage(vout); });
            tb.measure("edges", [&counter] { return double(counter.edges); });
        });

    auto tb = quickstart.build();
    tb->run();
    tb->save_trace("quickstart_trace.dat");

    std::printf("quickstart: simulated %.1f ms of a TDF -> ELN -> DE loop\n",
                tb->context().now().to_seconds() * 1e3);
    std::printf("  filtered amplitude at vout : %.3f V (attenuated from 1.0 V)\n",
                tb->measurement("vout_amplitude"));
    std::printf("  comparator edges seen in DE: %.0f (expect ~2 per 1 kHz cycle)\n",
                tb->measurement("edges"));
    std::printf("  waveforms written to        quickstart_trace.dat\n");
    return 0;
}
