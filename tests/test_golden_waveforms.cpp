// Golden-waveform regression suite (`ctest -L golden`): canonical scenarios
// covering the example models and the pipeline-ADC / sigma-delta / PLL
// composites, each checked sample-for-sample against a reference trace
// stored in tests/golden/.  Pure-TDF traces are tagged exact (bit-identity,
// tol 0); solver-backed (ELN) traces carry a small tolerance for
// cross-platform libm/BLAS drift.  Each scenario is replayed under BOTH the
// block and the per-sample executor — the same golden file must match both.
//
// Regenerate with scripts/regen_golden.py (or SCA_REGEN_GOLDEN=1 in the
// environment) after an intentional numeric change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/signal.hpp"
#include "lib/amplifier.hpp"
#include "lib/filters.hpp"
#include "lib/mixer.hpp"
#include "lib/oscillator.hpp"
#include "lib/pipeline_adc.hpp"
#include "lib/pll.hpp"
#include "lib/pwm.hpp"
#include "lib/sigma_delta.hpp"
#include "tdf/cluster.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace sca::de::literals;

#ifndef SCA_GOLDEN_DIR
#define SCA_GOLDEN_DIR "tests/golden"
#endif

namespace {

/// Consumes tokens so probed signals have a reader in the cluster.
struct tap : tdf::module {
    tdf::in<double> in;
    explicit tap(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

struct probe_spec {
    std::string name;
    double tol;  // 0 = exact (bit-identity), > 0 = EXPECT_NEAR
};

struct golden_case {
    std::string name;
    std::vector<probe_spec> probes;
    std::function<void(core::testbench&)> build;  // probes + stop/sample times
};

std::string golden_path(const std::string& scenario) {
    return std::string(SCA_GOLDEN_DIR) + "/" + scenario + ".csv";
}

/// Hexfloat CSV: line 1 = `name:tol` columns, then one row per sample.
void write_golden(const std::string& path, const std::vector<probe_spec>& probes,
                  const std::vector<std::vector<double>>& waves) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    for (std::size_t c = 0; c < probes.size(); ++c) {
        f << (c ? "," : "") << probes[c].name << ":" << probes[c].tol;
    }
    f << "\n";
    const std::size_t rows = waves.empty() ? 0 : waves[0].size();
    char buf[64];
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < waves.size(); ++c) {
            std::snprintf(buf, sizeof buf, "%a", waves[c][r]);
            f << (c ? "," : "") << buf;
        }
        f << "\n";
    }
}

struct golden_file {
    std::vector<probe_spec> probes;
    std::vector<std::vector<double>> waves;  // per probe
};

bool read_golden(const std::string& path, golden_file& out) {
    std::ifstream f(path);
    if (!f.good()) return false;
    std::string line;
    if (!std::getline(f, line)) return false;
    std::stringstream hdr(line);
    std::string col;
    while (std::getline(hdr, col, ',')) {
        const auto sep = col.rfind(':');
        out.probes.push_back({col.substr(0, sep), std::strtod(col.c_str() + sep + 1, nullptr)});
    }
    out.waves.assign(out.probes.size(), {});
    while (std::getline(f, line)) {
        if (line.empty()) continue;
        std::stringstream row(line);
        std::size_t c = 0;
        while (std::getline(row, col, ',') && c < out.waves.size()) {
            out.waves[c].push_back(std::strtod(col.c_str(), nullptr));
            ++c;
        }
    }
    return true;
}

bool regen_requested() {
    const char* v = std::getenv("SCA_REGEN_GOLDEN");
    return v != nullptr && std::strcmp(v, "0") != 0;
}

/// Build + run `gc` under the chosen executor; returns one waveform per probe.
std::vector<std::vector<double>> run_case(const golden_case& gc, bool block) {
    core::scenario sc = core::scenario::define("golden_" + gc.name + (block ? "_b" : "_s"),
                                               [&gc](core::testbench& tb,
                                                     const core::params&) { gc.build(tb); });
    auto tb = sc.build();
    tdf::registry::of(tb->context()).set_default_block_execution(block);
    tb->run();
    std::vector<std::vector<double>> waves;
    waves.reserve(gc.probes.size());
    for (const auto& p : gc.probes) waves.push_back(tb->waveform(p.name));
    return waves;
}

void check_against_golden(const golden_case& gc) {
    const std::string path = golden_path(gc.name);
    if (regen_requested()) {
        const auto waves = run_case(gc, true);
        ASSERT_FALSE(waves.empty());
        ASSERT_GT(waves[0].size(), 10U) << gc.name << ": suspiciously short trace";
        write_golden(path, gc.probes, waves);
        GTEST_SKIP() << "regenerated " << path << " (" << waves[0].size() << " samples)";
    }
    golden_file ref;
    ASSERT_TRUE(read_golden(path, ref))
        << "missing golden file " << path << " — run scripts/regen_golden.py";
    ASSERT_EQ(ref.probes.size(), gc.probes.size()) << gc.name;

    for (const bool block : {true, false}) {
        const auto waves = run_case(gc, block);
        const char* mode = block ? "block" : "per-sample";
        ASSERT_EQ(waves.size(), ref.waves.size()) << gc.name << " " << mode;
        for (std::size_t c = 0; c < waves.size(); ++c) {
            ASSERT_EQ(waves[c].size(), ref.waves[c].size())
                << gc.name << " " << mode << " probe " << gc.probes[c].name;
            const double tol = ref.probes[c].tol;
            for (std::size_t i = 0; i < waves[c].size(); ++i) {
                if (tol == 0.0) {
                    ASSERT_EQ(waves[c][i], ref.waves[c][i])
                        << gc.name << " " << mode << " probe " << gc.probes[c].name
                        << " sample " << i;
                } else {
                    ASSERT_NEAR(waves[c][i], ref.waves[c][i], tol)
                        << gc.name << " " << mode << " probe " << gc.probes[c].name
                        << " sample " << i;
                }
            }
        }
    }
}

// ----------------------------------------------------------- the scenarios

golden_case quickstart_rc_case() {
    return {"quickstart_rc",
            {{"vout", 1e-9}},  // MNA-solved: tolerance-tagged
            [](core::testbench& tb) {
                auto& net = tb.make<eln::network>("net");
                net.set_timestep(2.0, de::time_unit::us);
                auto gnd = net.ground();
                auto vin = net.create_node("vin");
                auto vout = net.create_node("vout");
                tb.make<eln::vsource>("vs", net, vin, gnd,
                                      eln::waveform::sine(1.0, 1e3));
                tb.make<eln::resistor>("r", net, vin, vout, 1e3);
                tb.make<eln::capacitor>("c", net, vout, gnd, 100e-9);
                tb.probe("vout", [&net, vout] { return net.voltage(vout); });
                tb.set_stop_time(2_ms);
                tb.set_sample_period(10_us);
            }};
}

golden_case tdf_filter_chain_case() {
    return {"tdf_filter_chain",
            {{"filtered", 0.0}},
            [](core::testbench& tb) {
                auto& src = tb.make<lib::sine_source>("src", 1.0, 5e3);
                src.set_timestep(10.0, de::time_unit::us);
                auto& f = tb.make<lib::fir>("fir", lib::fir::design_lowpass(21, 0.15));
                auto& bq = tb.make<lib::biquad>(
                    "bq", lib::biquad_coefficients{0.2, 0.3, 0.1, -0.4, 0.05});
                auto& snk = tb.make<tap>("snk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& w2 = tb.make<tdf::signal<double>>("w2");
                auto& w3 = tb.make<tdf::signal<double>>("w3");
                src.out.bind(w1);
                f.in.bind(w1);
                f.out.bind(w2);
                bq.in.bind(w2);
                bq.out.bind(w3);
                snk.in.bind(w3);
                tb.probe("filtered", w3);
                tb.set_stop_time(5_ms);
                tb.set_sample_period(10_us);
            }};
}

golden_case multirate_codec_case() {
    return {"multirate_codec",
            {{"decoded", 0.0}},
            [](core::testbench& tb) {
                auto& src = tb.make<lib::sine_source>("src", 0.9, 2e3);
                src.set_timestep(8.0, de::time_unit::us);
                auto& up = tb.make<lib::interpolator>("up", 4U);
                auto& f = tb.make<lib::fir>("fir", lib::fir::design_lowpass(11, 0.2));
                auto& down = tb.make<lib::decimator>("down", 4U);
                auto& snk = tb.make<tap>("snk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& w2 = tb.make<tdf::signal<double>>("w2");
                auto& w3 = tb.make<tdf::signal<double>>("w3");
                auto& w4 = tb.make<tdf::signal<double>>("w4");
                src.out.bind(w1);
                up.in.bind(w1);
                up.out.bind(w2);
                f.in.bind(w2);
                f.out.bind(w3);
                down.in.bind(w3);
                down.out.bind(w4);
                snk.in.bind(w4);
                tb.probe("decoded", w4);
                tb.set_stop_time(4_ms);
                tb.set_sample_period(8_us);
            }};
}

golden_case rf_mixer_chain_case() {
    return {"rf_mixer_chain",
            {{"if_out", 0.0}},
            [](core::testbench& tb) {
                auto& rf = tb.make<lib::sine_source>("rf", 1.0, 3e3);
                rf.set_timestep(5.0, de::time_unit::us);
                auto& lo = tb.make<lib::sine_source>("lo", 1.0, 20e3);
                lo.set_timestep(5.0, de::time_unit::us);
                auto& mix = tb.make<lib::mixer>("mix", 2.0);
                mix.set_feedthrough(0.1, 0.05);
                auto& amp = tb.make<lib::amplifier>("amp", 3.0, 2.0, -2.0);
                amp.set_bandwidth(10e3);
                auto& snk = tb.make<tap>("snk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& w2 = tb.make<tdf::signal<double>>("w2");
                auto& w3 = tb.make<tdf::signal<double>>("w3");
                auto& w4 = tb.make<tdf::signal<double>>("w4");
                rf.out.bind(w1);
                lo.out.bind(w2);
                mix.rf.bind(w1);
                mix.lo.bind(w2);
                mix.out.bind(w3);
                amp.in.bind(w3);
                amp.out.bind(w4);
                snk.in.bind(w4);
                tb.probe("if_out", w4);
                tb.set_stop_time(5_ms);
                tb.set_sample_period(5_us);
            }};
}

golden_case quadrature_product_case() {
    return {"quadrature_product",
            {{"product", 0.0}},
            [](core::testbench& tb) {
                auto& osc = tb.make<lib::quadrature_oscillator>("osc", 1.0, 4e3);
                osc.set_timestep(10.0, de::time_unit::us);
                auto& mix = tb.make<lib::mixer>("mix", 1.0);
                auto& snk = tb.make<tap>("snk");
                auto& wi = tb.make<tdf::signal<double>>("wi");
                auto& wq = tb.make<tdf::signal<double>>("wq");
                auto& wp = tb.make<tdf::signal<double>>("wp");
                osc.out_i.bind(wi);
                osc.out_q.bind(wq);
                mix.rf.bind(wi);
                mix.lo.bind(wq);
                mix.out.bind(wp);
                snk.in.bind(wp);
                tb.probe("product", wp);
                tb.set_stop_time(5_ms);
                tb.set_sample_period(10_us);
            }};
}

golden_case sigma_delta_adc_case() {
    return {"sigma_delta_adc",
            {{"decimated", 0.0}},
            [](core::testbench& tb) {
                auto& src = tb.make<lib::sine_source>("src", 0.8, 1e3);
                src.set_timestep(2.0, de::time_unit::us);
                auto& adc = tb.make<lib::sigma_delta_adc>("adc", 2U, 1.0, 16U);
                auto& snk = tb.make<tap>("snk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& w2 = tb.make<tdf::signal<double>>("w2");
                src.out.bind(w1);
                adc.in.bind(w1);
                adc.out.bind(w2);
                snk.in.bind(w2);
                tb.probe("decimated", w2);
                tb.set_stop_time(8_ms);
                tb.set_sample_period(32_us);
            }};
}

golden_case pipeline_adc_case() {
    return {"pipeline_adc",
            {{"estimate", 0.0}},
            [](core::testbench& tb) {
                auto& src = tb.make<lib::sine_source>("src", 0.95, 997.0);
                src.set_timestep(10.0, de::time_unit::us);
                auto& adc = tb.make<lib::pipeline_adc>("adc", 6U, 1.0);
                auto& snk = tb.make<tap>("snk");
                struct code_tap : tdf::module {
                    tdf::in<std::int64_t> in;
                    explicit code_tap(const de::module_name& nm)
                        : tdf::module(nm), in("in") {}
                    void processing() override { (void)in.read(); }
                };
                auto& csnk = tb.make<code_tap>("csnk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& w2 = tb.make<tdf::signal<double>>("w2");
                auto& wc = tb.make<tdf::signal<std::int64_t>>("wc");
                src.out.bind(w1);
                adc.in.bind(w1);
                adc.analog_estimate.bind(w2);
                adc.code.bind(wc);
                snk.in.bind(w2);
                csnk.in.bind(wc);
                tb.probe("estimate", w2);
                tb.set_stop_time(5_ms);
                tb.set_sample_period(10_us);
            }};
}

golden_case pll_lock_case() {
    return {"pll_lock",
            {{"control", 0.0}},
            [](core::testbench& tb) {
                auto& ref = tb.make<lib::sine_source>("ref", 1.0, 10.2e3);
                ref.set_timestep(2.0, de::time_unit::us);
                auto& loop = tb.make<lib::pll>("loop", 10e3, 2e3, 1000.0);
                auto& osnk = tb.make<tap>("osnk");
                auto& csnk = tb.make<tap>("csnk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& wo = tb.make<tdf::signal<double>>("wo");
                auto& wc = tb.make<tdf::signal<double>>("wc");
                ref.out.bind(w1);
                loop.ref.bind(w1);
                loop.out.bind(wo);
                loop.control.bind(wc);
                osnk.in.bind(wo);
                csnk.in.bind(wc);
                tb.probe("control", wc);
                tb.set_stop_time(20_ms);
                tb.set_sample_period(20_us);
            }};
}

golden_case pwm_switch_rc_case() {
    // The power_driver family: a DE PWM gating a switched RC through a
    // de_rswitch.  The cluster only reads DE signals, so it batches periods
    // between PWM edges as multi-period passes of its firing program — the
    // golden trace pins down that neither the block executor nor the batch
    // planner moves a bit on this path.
    return {"pwm_switch_rc",
            {{"vout", 1e-9}},  // MNA-solved: tolerance-tagged
            [](core::testbench& tb) {
                auto& duty = tb.make<de::signal<double>>("duty", 0.4);
                auto& gate = tb.make<de::signal<bool>>("gate", false);
                auto& mod = tb.make<lib::pwm>("mod", 20_us);
                mod.duty.bind(duty);
                mod.out.bind(gate);

                auto& net = tb.make<eln::network>("net");
                net.set_timestep(2.0, de::time_unit::us);
                auto gnd = net.ground();
                auto vin = net.create_node("vin");
                auto vsw = net.create_node("vsw");
                tb.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(12.0));
                auto& sw = tb.make<eln::de_rswitch>("sw", net, vin, vsw, 0.1, 1e6);
                sw.ctrl.bind(gate);
                tb.make<eln::resistor>("load", net, vsw, gnd, 100.0);
                tb.make<eln::capacitor>("c", net, vsw, gnd, 1e-6);

                tb.probe("vout", [&net, vsw] { return net.voltage(vsw); });
                // Co-prime with the 20 us PWM period so ripple doesn't alias.
                tb.set_sample_period(3_us);
                tb.set_stop_time(3_ms);
            }};
}

golden_case adaptive_retimer_case() {
    // The adaptive_receiver family: a dynamic module retimes its cluster at
    // runtime.  Dynamic clusters keep the per-sample path between reschedule
    // barriers, so the same golden file must match with block execution on
    // and off — and across every reschedule, with no lost or duplicated
    // samples on the probe grid.
    struct dyn_ramp : tdf::module {
        tdf::out<double> out;
        std::uint64_t k = 0;
        bool slow = false;
        explicit dyn_ramp(const de::module_name& nm) : tdf::module(nm), out("out") {}
        [[nodiscard]] bool does_attribute_changes() const override { return true; }
        void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
        void processing() override { out.write(1e-3 * static_cast<double>(k++)); }
        void change_attributes() override {
            if (k % 16 == 0) {
                slow = !slow;
                request_timestep(slow ? 25_us : 10_us);
            }
        }
    };
    // A biquad's recurrence is timestep-independent, so riding along a
    // retime is sound — it just has to say so.
    struct dyn_biquad : lib::biquad {
        using lib::biquad::biquad;
        [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    };
    struct dyn_tap : tap {
        using tap::tap;
        [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    };
    return {"adaptive_retimer",
            {{"shaped", 0.0}},
            [](core::testbench& tb) {
                auto& src = tb.make<dyn_ramp>("src");
                auto& bq = tb.make<dyn_biquad>(
                    "bq", lib::biquad_coefficients{0.3, 0.2, 0.1, -0.5, 0.04});
                auto& snk = tb.make<dyn_tap>("snk");
                auto& w1 = tb.make<tdf::signal<double>>("w1");
                auto& w2 = tb.make<tdf::signal<double>>("w2");
                src.out.bind(w1);
                bq.in.bind(w1);
                bq.out.bind(w2);
                snk.in.bind(w2);
                tb.probe("shaped", w2);
                tb.set_stop_time(10_ms);
                tb.set_sample_period(50_us);  // multiple of both timesteps
            }};
}

}  // namespace

TEST(golden_waveforms, quickstart_rc) { check_against_golden(quickstart_rc_case()); }
TEST(golden_waveforms, tdf_filter_chain) { check_against_golden(tdf_filter_chain_case()); }
TEST(golden_waveforms, multirate_codec) { check_against_golden(multirate_codec_case()); }
TEST(golden_waveforms, rf_mixer_chain) { check_against_golden(rf_mixer_chain_case()); }
TEST(golden_waveforms, quadrature_product) {
    check_against_golden(quadrature_product_case());
}
TEST(golden_waveforms, sigma_delta_adc) { check_against_golden(sigma_delta_adc_case()); }
TEST(golden_waveforms, pipeline_adc) { check_against_golden(pipeline_adc_case()); }
TEST(golden_waveforms, pll_lock) { check_against_golden(pll_lock_case()); }
TEST(golden_waveforms, pwm_switch_rc) { check_against_golden(pwm_switch_rc_case()); }
TEST(golden_waveforms, adaptive_retimer) {
    check_against_golden(adaptive_retimer_case());
}
