// Figure 1 of the paper: the ADSL subscriber line interface and codec
// filter, as an executable multi-MoC specification.
//
//   tone "DSP" (TDF)  ->  line driver (LSF: Butterworth + gain)
//                     ->  subscriber line + hybrid (ELN network)
//                     ->  sigma-delta prefi (TDF) -> sinc3 pofi (TDF)
//                     ->  DSP receive FIR (TDF)
//   software controller (DE) watches line activity and gates the receive
//   path — the "Control / software controller" block of the figure.
//
// Defined as one scenario spanning all four MoCs; the per-MoC statistics and
// end-to-end signal quality come out as named measurements.
#include <cstdio>
#include <vector>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "lib/converters.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "lib/sigma_delta.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "lsf/view.hpp"
#include "util/measure.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
using namespace sca::de::literals;

namespace {

struct rx_recorder : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    explicit rx_recorder(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { samples.push_back(in.read()); }
};

struct bool_sink : tdf::module {
    tdf::in<bool> in;
    explicit bool_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

core::scenario define_adsl() {
    return core::scenario::define(
        "adsl_frontend", core::params{{"f_tone", 10e3}, {"tone_amp", 0.5}},
        [](core::testbench& tb, const core::params& p) {
            const de::time codec_step(0.5, de::time_unit::us);  // 2 MHz rate

            // --- transmit "DSP": upstream tone (stands in for DMT symbols).
            auto& tone = tb.make<lib::sine_source>("tone", p.number("tone_amp"),
                                                   p.number("f_tone"));
            tone.set_timestep(codec_step);

            // --- line driver: 3rd-order Butterworth + gain (LSF).
            auto& driver = tb.make<lsf::system>("driver");
            auto u = driver.create_signal("u");
            auto filtered = driver.create_signal("filtered");
            auto boosted = driver.create_signal("boosted");
            auto& drv_in = tb.make<lsf::from_tdf>("drv_in", driver, u);
            const auto tf = lsf::filters::butterworth_lowpass(3, 150e3);
            tb.make<lsf::ltf_nd>("drv_filter", driver, u, filtered, tf.num, tf.den);
            tb.make<lsf::gain>("drv_gain", driver, filtered, boosted, 1.2);
            auto& drv_out = tb.make<lsf::to_tdf>("drv_out", driver, boosted);

            // --- subscriber line: source impedance, line RC, termination.
            auto& line = tb.make<eln::network>("line");
            auto gnd = line.ground();
            auto tx = line.create_node("tx");
            auto mid = line.create_node("mid");
            auto rx = line.create_node("rx");
            auto& drv_src = tb.make<eln::tdf_vsource>("drv_src", line, tx, gnd);
            tb.make<eln::resistor>("r_s", line, tx, mid, 100.0);
            tb.make<eln::capacitor>("c_line", line, mid, gnd, 10e-9);
            tb.make<eln::resistor>("r_line", line, mid, rx, 100.0);
            tb.make<eln::resistor>("r_term", line, rx, gnd, 100.0);
            auto& rx_probe = tb.make<eln::tdf_vsink>("rx_probe", line, rx, gnd);

            // --- receive codec: sigma-delta prefi + sinc3 pofi + FIR (TDF).
            auto& prefi = tb.make<lib::sigma_delta_modulator>("prefi", 2, 1.0);
            auto& pofi = tb.make<lib::sinc3_decimator>("pofi", 32);  // 62.5 kHz
            auto& rx_fir = tb.make<lib::fir>("rx_fir", lib::fir::design_lowpass(63, 0.4));
            auto& rx_out = tb.make<rx_recorder>("rx_out");

            // --- software controller (DE): link activity detector.
            auto& level = tb.make<lib::comparator>("level", 0.05, 0.02);
            auto& line_active = tb.make<de::signal<bool>>("line_active", false);
            level.enable_de_output(line_active);
            struct link_counter {
                int events = 0;
            };
            auto& lc = tb.make<link_counter>();
            auto& controller = tb.context().register_method(
                "controller", [&lc] { ++lc.events; });
            controller.dont_initialize();
            controller.make_sensitive(line_active.value_changed_event());

            // --- wiring.
            auto& w_tone = tb.make<tdf::signal<double>>("w_tone");
            auto& w_drv = tb.make<tdf::signal<double>>("w_drv");
            auto& w_rx = tb.make<tdf::signal<double>>("w_rx");
            auto& w_mod = tb.make<tdf::signal<double>>("w_mod");
            auto& w_dec = tb.make<tdf::signal<double>>("w_dec");
            auto& w_fir = tb.make<tdf::signal<double>>("w_fir");
            auto& w_act = tb.make<tdf::signal<bool>>("w_act");
            tone.out.bind(w_tone);
            drv_in.inp.bind(w_tone);
            drv_out.outp.bind(w_drv);
            drv_src.inp.bind(w_drv);
            rx_probe.outp.bind(w_rx);
            prefi.in.bind(w_rx);
            prefi.out.bind(w_mod);
            pofi.in.bind(w_mod);
            pofi.out.bind(w_dec);
            rx_fir.in.bind(w_dec);
            rx_fir.out.bind(w_fir);
            rx_out.in.bind(w_fir);
            level.in.bind(w_rx);
            level.out.bind(w_act);
            auto& bs = tb.make<bool_sink>("bs");
            bs.in.bind(w_act);

            tb.set_stop_time(20_ms);
            const double fs_out = 2e6 / 32.0;
            tb.measure("sinad_db", [&rx_out, fs_out] {
                std::vector<double> tail(rx_out.samples.end() - 512,
                                         rx_out.samples.end());
                return sca::util::sinad_db(tail, fs_out);
            });
            tb.measure("rx_amplitude", [&rx_out] {
                double amp = 0.0;
                for (auto it = rx_out.samples.end() - 512; it != rx_out.samples.end();
                     ++it) {
                    amp = std::max(amp, std::abs(*it));
                }
                return amp;
            });
            tb.measure("prefi_activations",
                       [&prefi] { return double(prefi.activation_count()); });
            tb.measure("pofi_activations",
                       [&pofi] { return double(pofi.activation_count()); });
            tb.measure("driver_steps",
                       [&driver] { return double(driver.activation_count()); });
            tb.measure("line_steps",
                       [&line] { return double(line.activation_count()); });
            tb.measure("line_factorizations",
                       [&line] { return double(line.factorizations()); });
            tb.measure("link_events", [&lc] { return double(lc.events); });
        });
}

}  // namespace

int main() {
    auto tb = define_adsl().build();
    tb->run();

    std::printf("ADSL subscriber line interface (paper Figure 1), %.0f ms simulated\n",
                tb->context().now().to_seconds() * 1e3);
    std::printf("  MoC inventory:\n");
    std::printf("    TDF  modulator activations : %.0f (2 MHz)\n",
                tb->measurement("prefi_activations"));
    std::printf("    TDF  decimator activations : %.0f (62.5 kHz)\n",
                tb->measurement("pofi_activations"));
    std::printf("    LSF  driver solver steps   : %.0f\n",
                tb->measurement("driver_steps"));
    std::printf("    ELN  line solver steps     : %.0f (factored %.0f time(s))\n",
                tb->measurement("line_steps"), tb->measurement("line_factorizations"));
    std::printf("    DE   controller events     : %.0f\n",
                tb->measurement("link_events"));
    std::printf("  receive path quality:\n");
    std::printf("    recovered 10 kHz amplitude : %.3f (expect ~0.18: tone 0.5 x\n"
                "                                 driver 1.2 x line divider 1/3 x\n"
                "                                 line C shunt x sinc3 droop 0.88)\n",
                tb->measurement("rx_amplitude"));
    std::printf("    SINAD through the codec    : %.1f dB\n",
                tb->measurement("sinad_db"));
    return 0;
}
