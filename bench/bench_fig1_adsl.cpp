// FIG1: the paper's single figure — the ADSL subscriber line interface and
// codec filter — as an executable multi-MoC system.
//
// Blocks and their MoCs follow the figure's annotations:
//   subscriber line + protection  -> linear electrical network (ELN)
//   high-voltage driver, filters  -> signal-flow (LSF)
//   sigma-delta prefi/pofi        -> dataflow (TDF)
//   digital filters / DSP         -> dataflow (TDF, FIR)
//   software controller           -> event-driven (DE state machine)
//
// The benchmark runs the full system and reports the real-time factor and
// per-MoC activation counts — the numbers that justify modeling each block
// at its own level of abstraction.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <chrono>

#include "bench_util.hpp"
#include "eln/converter.hpp"
#include "lib/converters.hpp"
#include "lib/filters.hpp"
#include "lib/sigma_delta.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "lsf/view.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

constexpr de::time k_codec_step = de::time::from_fs(500'000'000);  // 2 MHz modulator

struct adsl_system {
    de::simulation_context sim;

    // --- transmit path stimulus (the "DSP" side): upstream tone ----------
    std::unique_ptr<sine_src> tone;

    // --- line driver as LSF lowpass + gain --------------------------------
    std::unique_ptr<lsf::system> driver;
    std::unique_ptr<lsf::from_tdf> drv_in;
    std::unique_ptr<lsf::ltf_nd> drv_filter;
    std::unique_ptr<lsf::gain> drv_gain;
    std::unique_ptr<lsf::to_tdf> drv_out;

    // --- subscriber line as RC two-port (ELN) ------------------------------
    std::unique_ptr<eln::network> line;
    std::vector<std::unique_ptr<eln::component>> line_parts;

    // --- receive codec: sigma-delta + sinc3 + FIR (TDF) --------------------
    std::unique_ptr<lib::sigma_delta_modulator> prefi;
    std::unique_ptr<lib::sinc3_decimator> pofi;
    std::unique_ptr<lib::fir> rx_fir;
    std::unique_ptr<null_sink> dsp_sink;

    // --- software controller (DE): monitors line activity ------------------
    std::unique_ptr<lib::comparator> level_detect;
    de::signal<bool> line_active{"line_active", false};
    int controller_events = 0;

    struct bsink : tdf::module {
        tdf::in<bool> in;
        explicit bsink(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { (void)in.read(); }
    };

    std::vector<std::unique_ptr<tdf::signal<double>>> wires;
    std::vector<std::unique_ptr<tdf::signal<bool>>> bwires;

    adsl_system() {
        auto wire = [&] {
            wires.push_back(std::make_unique<tdf::signal<double>>(
                "w" + std::to_string(wires.size())));
            return wires.back().get();
        };

        tone = std::make_unique<sine_src>(de::module_name("tone"), 0.5, 40e3,
                                          k_codec_step);

        driver = std::make_unique<lsf::system>(de::module_name("driver"));
        auto u = driver->create_signal("u");
        auto f = driver->create_signal("f");
        auto y = driver->create_signal("y");
        drv_in = std::make_unique<lsf::from_tdf>("drv_in", *driver, u);
        const auto tf = lsf::filters::butterworth_lowpass(3, 150e3);
        drv_filter = std::make_unique<lsf::ltf_nd>("drv_filter", *driver, u, f, tf.num,
                                                   tf.den);
        drv_gain = std::make_unique<lsf::gain>("drv_gain", *driver, f, y, 4.0);
        drv_out = std::make_unique<lsf::to_tdf>("drv_out", *driver, y);

        line = std::make_unique<eln::network>(de::module_name("line"));
        auto gnd = line->ground();
        auto tx = line->create_node("tx");
        auto mid = line->create_node("mid");
        auto rx = line->create_node("rx");
        auto* drv_src = new eln::tdf_vsource("drv_src", *line, tx, gnd);
        line_parts.emplace_back(drv_src);
        line_parts.emplace_back(new eln::resistor("r_s", *line, tx, mid, 100.0));
        line_parts.emplace_back(new eln::capacitor("c_line", *line, mid, gnd, 10e-9));
        line_parts.emplace_back(new eln::resistor("r_line", *line, mid, rx, 100.0));
        line_parts.emplace_back(new eln::resistor("r_term", *line, rx, gnd, 100.0));
        auto* rx_probe = new eln::tdf_vsink("rx_probe", *line, rx, gnd);
        line_parts.emplace_back(rx_probe);

        prefi = std::make_unique<lib::sigma_delta_modulator>(de::module_name("prefi"), 2,
                                                             1.0);
        pofi = std::make_unique<lib::sinc3_decimator>(de::module_name("pofi"), 32);
        rx_fir = std::make_unique<lib::fir>(de::module_name("rx_fir"),
                                            lib::fir::design_lowpass(63, 0.4));
        dsp_sink = std::make_unique<null_sink>(de::module_name("dsp_sink"));

        level_detect = std::make_unique<lib::comparator>(de::module_name("level"), 0.05,
                                                         0.02);
        level_detect->enable_de_output(line_active);
        bwires.push_back(std::make_unique<tdf::signal<bool>>("b0"));

        // Wiring.
        auto* w0 = wire();
        tone->out.bind(*w0);
        drv_in->inp.bind(*w0);
        auto* w1 = wire();
        drv_out->outp.bind(*w1);
        drv_src->inp.bind(*w1);
        auto* w2 = wire();
        rx_probe->outp.bind(*w2);
        prefi->in.bind(*w2);
        auto* w3 = wire();
        prefi->out.bind(*w3);
        pofi->in.bind(*w3);
        auto* w4 = wire();
        pofi->out.bind(*w4);
        rx_fir->in.bind(*w4);
        auto* w5 = wire();
        rx_fir->out.bind(*w5);
        dsp_sink->in.bind(*w5);
        level_detect->in.bind(*w2);
        level_detect->out.bind(*bwires.back());
        bool_sink_ = std::make_unique<bsink>(de::module_name("bsink"));
        bool_sink_->in.bind(*bwires.back());

        // Software controller: counts link state changes.
        auto& proc = sim.register_method("controller", [this] {
            ++controller_events;
        });
        proc.dont_initialize();
        proc.make_sensitive(line_active.value_changed_event());
    }

    std::unique_ptr<bsink> bool_sink_;
};

void fig1_adsl_full_system(benchmark::State& state) {
    const double sim_seconds = 5e-3;
    std::uint64_t tdf_activations = 0;
    std::uint64_t line_steps = 0;
    int de_events = 0;
    double wall = 0.0;
    for (auto _ : state) {
        adsl_system sys;
        const auto t0 = std::chrono::steady_clock::now();
        sys.sim.run(de::time::from_seconds(sim_seconds));
        wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        tdf_activations = sys.prefi->activation_count() + sys.pofi->activation_count() +
                          sys.rx_fir->activation_count() + sys.tone->activation_count();
        line_steps = sys.line->activation_count();
        de_events = sys.controller_events;
        benchmark::DoNotOptimize(sys.dsp_sink->last);
    }
    state.counters["tdf_activations"] = static_cast<double>(tdf_activations);
    state.counters["eln_steps"] = static_cast<double>(line_steps);
    state.counters["de_events"] = static_cast<double>(de_events);
    state.counters["real_time_factor"] = sim_seconds / wall;
}

}  // namespace

BENCHMARK(fig1_adsl_full_system)->Unit(benchmark::kMillisecond)->Iterations(3);

SCA_BENCH_MAIN(bench_fig1_adsl)
