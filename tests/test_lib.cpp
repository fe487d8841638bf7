// Mixed-signal library tests: amplifier, filters, converters, sigma-delta,
// pipelined ADC, PWM, mixers, oscillators, noise sources, external ODE.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "lib/amplifier.hpp"
#include "lib/converters.hpp"
#include "lib/external_ode.hpp"
#include "lib/filters.hpp"
#include "lib/mixer.hpp"
#include "lib/noise_source.hpp"
#include "lib/oscillator.hpp"
#include "lib/pipeline_adc.hpp"
#include "lib/pwm.hpp"
#include "lib/sigma_delta.hpp"
#include "util/fft.hpp"
#include "util/measure.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace lib = sca::lib;
namespace core = sca::core;
using namespace sca::de::literals;

namespace {

/// Generic TDF collector used across the tests.
struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    explicit collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override {
        for (unsigned k = 0; k < in.rate(); ++k) samples.push_back(in.read(k));
    }
};

struct int_collector : tdf::module {
    tdf::in<std::int64_t> in;
    std::vector<std::int64_t> samples;
    explicit int_collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { samples.push_back(in.read()); }
};

}  // namespace

TEST(amplifier, gain_and_saturation) {
    de::simulation_context sim;
    lib::sine_source src("src", 1.0, 10e3);
    src.set_timestep(1.0, de::time_unit::us);
    lib::amplifier amp("amp", 5.0, 2.5, -2.5);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    amp.in.bind(s1);
    amp.out.bind(s2);
    sink.in.bind(s2);

    sim.run(200_us);
    double vmax = 0.0, vmin = 0.0;
    for (double v : sink.samples) {
        vmax = std::max(vmax, v);
        vmin = std::min(vmin, v);
    }
    EXPECT_NEAR(vmax, 2.5, 1e-9);  // clipped, not 5.0
    EXPECT_NEAR(vmin, -2.5, 1e-9);
}

TEST(amplifier, bandwidth_attenuates_high_frequency) {
    auto amplitude_at = [](double f_signal) {
        de::simulation_context sim;
        lib::sine_source src("src", 1.0, f_signal);
        src.set_timestep(100.0, de::time_unit::ns);
        lib::amplifier amp("amp", 1.0);
        amp.set_bandwidth(10e3);
        collector sink("sink");
        tdf::signal<double> s1("s1"), s2("s2");
        src.out.bind(s1);
        amp.in.bind(s1);
        amp.out.bind(s2);
        sink.in.bind(s2);
        sim.run(2_ms);
        double vmax = 0.0;
        for (std::size_t i = sink.samples.size() / 2; i < sink.samples.size(); ++i) {
            vmax = std::max(vmax, std::abs(sink.samples[i]));
        }
        return vmax;
    };
    EXPECT_GT(amplitude_at(1e3), 0.95);
    EXPECT_LT(amplitude_at(100e3), 0.2);
}

TEST(fir, design_has_unity_dc_gain) {
    const auto taps = lib::fir::design_lowpass(63, 0.1);
    double sum = 0.0;
    for (double t : taps) sum += t;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(fir, lowpass_rejects_high_frequency) {
    de::simulation_context sim;
    lib::sine_source lo("lo", 1.0, 1e3);
    lo.set_timestep(10.0, de::time_unit::us);  // fs = 100 kHz
    lib::sine_source hi("hi", 1.0, 40e3);
    struct adder : tdf::module {
        tdf::in<double> a, b;
        tdf::out<double> out;
        explicit adder(const de::module_name& nm)
            : tdf::module(nm), a("a"), b("b"), out("out") {}
        void processing() override { out.write(a.read() + b.read()); }
    } mix("mix");
    lib::fir filt("filt", lib::fir::design_lowpass(101, 0.05));  // fc = 5 kHz
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3"), s4("s4");
    lo.out.bind(s1);
    hi.out.bind(s2);
    mix.a.bind(s1);
    mix.b.bind(s2);
    mix.out.bind(s3);
    filt.in.bind(s3);
    filt.out.bind(s4);
    sink.in.bind(s4);

    sim.run(20_ms);
    // After settling, output should be nearly the pure 1 kHz tone.
    std::vector<double> tail(sink.samples.end() - 1024, sink.samples.end());
    const auto spec = sca::util::magnitude_spectrum(tail, 100e3);
    double mag_1k = 0.0, mag_40k = 0.0;
    for (const auto& bin : spec) {
        if (std::abs(bin.frequency - 1e3) < 200.0) mag_1k = std::max(mag_1k, bin.magnitude);
        if (std::abs(bin.frequency - 40e3) < 200.0) {
            mag_40k = std::max(mag_40k, bin.magnitude);
        }
    }
    EXPECT_GT(mag_1k, 0.8);
    EXPECT_LT(mag_40k, 0.01);
}

TEST(biquad, bilinear_lowpass_tracks_analog_prototype) {
    // Analog: H(s) = 1/(1 + s/w0); digital biquad via bilinear transform.
    const double fc = 1e3;
    const double w0 = 2.0 * std::numbers::pi * fc;
    const auto c = lib::bilinear({1.0}, {1.0, 1.0 / w0}, 48e3);

    de::simulation_context sim;
    lib::sine_source src("src", 1.0, fc);  // at the corner: -3 dB expected
    src.set_timestep(1.0 / 48e3, de::time_unit::sec);
    lib::biquad f("f", c);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    f.in.bind(s1);
    f.out.bind(s2);
    sink.in.bind(s2);

    sim.run(20_ms);
    double vmax = 0.0;
    for (std::size_t i = sink.samples.size() / 2; i < sink.samples.size(); ++i) {
        vmax = std::max(vmax, std::abs(sink.samples[i]));
    }
    EXPECT_NEAR(vmax, 1.0 / std::sqrt(2.0), 0.02);
}

TEST(multirate, decimator_averages) {
    de::simulation_context sim;
    struct ramp : tdf::module {
        tdf::out<double> out;
        double v = 0.0;
        explicit ramp(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(v++); }
    } src("src");
    lib::decimator dec("dec", 4);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    dec.in.bind(s1);
    dec.out.bind(s2);
    sink.in.bind(s2);

    sim.run(16_us);
    ASSERT_GE(sink.samples.size(), 4U);
    EXPECT_DOUBLE_EQ(sink.samples[0], 1.5);   // mean of 0,1,2,3
    EXPECT_DOUBLE_EQ(sink.samples[1], 5.5);   // mean of 4,5,6,7
}

TEST(multirate, interpolator_is_linear) {
    de::simulation_context sim;
    struct steps : tdf::module {
        tdf::out<double> out;
        double v = 0.0;
        explicit steps(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(4.0, de::time_unit::us); }
        void processing() override {
            out.write(v);
            v += 4.0;
        }
    } src("src");
    lib::interpolator interp("interp", 4);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    interp.in.bind(s1);
    interp.out.bind(s2);
    sink.in.bind(s2);

    sim.run(12_us);
    // First input 0 (prev 0): flat; second input 4: ramps 1,2,3,4.
    ASSERT_GE(sink.samples.size(), 8U);
    EXPECT_DOUBLE_EQ(sink.samples[4], 1.0);
    EXPECT_DOUBLE_EQ(sink.samples[5], 2.0);
    EXPECT_DOUBLE_EQ(sink.samples[7], 4.0);
}

TEST(adc_dac, roundtrip_within_one_lsb) {
    de::simulation_context sim;
    lib::sine_source src("src", 0.9, 1e3);
    src.set_timestep(10.0, de::time_unit::us);
    lib::adc a("a", 10, 1.0);
    lib::dac d("d", 10, 1.0);
    collector sink("sink");
    collector orig("orig");
    tdf::signal<double> s1("s1"), s3("s3"), s4("s4");
    tdf::signal<std::int64_t> s2("s2");
    src.out.bind(s1);
    a.in.bind(s1);
    a.code.bind(s2);
    a.quantized.bind(s3);
    d.code.bind(s2);
    d.out.bind(s4);
    sink.in.bind(s4);
    orig.in.bind(s1);

    sim.run(2_ms);
    const double lsb = 2.0 / 1024.0;
    for (std::size_t i = 0; i < sink.samples.size(); ++i) {
        EXPECT_NEAR(sink.samples[i], orig.samples[i], lsb) << i;
    }
}

TEST(adc, saturates_at_full_scale) {
    de::simulation_context sim;
    lib::sine_source src("src", 3.0, 1e3);  // overdrive
    src.set_timestep(10.0, de::time_unit::us);
    lib::adc a("a", 8, 1.0);
    int_collector codes("codes");
    collector q("q");
    tdf::signal<double> s1("s1"), s3("s3");
    tdf::signal<std::int64_t> s2("s2");
    src.out.bind(s1);
    a.in.bind(s1);
    a.code.bind(s2);
    a.quantized.bind(s3);
    codes.in.bind(s2);
    q.in.bind(s3);

    sim.run(2_ms);
    for (auto c : codes.samples) {
        EXPECT_GE(c, -128);
        EXPECT_LE(c, 127);
    }
}

TEST(sample_hold, holds_value_across_output_rate) {
    de::simulation_context sim;
    lib::sine_source src("src", 1.0, 1e3);
    src.set_timestep(100.0, de::time_unit::us);
    lib::sample_hold sh("sh", 4);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    sh.in.bind(s1);
    sh.out.bind(s2);
    sink.in.bind(s2);

    sim.run(1_ms);
    ASSERT_GE(sink.samples.size(), 8U);
    for (std::size_t i = 0; i + 3 < sink.samples.size(); i += 4) {
        EXPECT_DOUBLE_EQ(sink.samples[i], sink.samples[i + 1]);
        EXPECT_DOUBLE_EQ(sink.samples[i], sink.samples[i + 3]);
    }
}

TEST(comparator, hysteresis_prevents_chatter) {
    de::simulation_context sim;
    struct noisy_ramp : tdf::module {
        tdf::out<double> out;
        explicit noisy_ramp(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override {
            const double t = tdf_time().to_seconds();
            const double ripple = 0.05 * ((activation_count() % 2 == 0) ? 1.0 : -1.0);
            out.write(t * 1e4 + ripple);  // slow ramp + ripple
        }
    } src("src");
    lib::comparator cmp("cmp", 0.5, 0.2);
    struct bool_collector : tdf::module {
        tdf::in<bool> in;
        int toggles = 0;
        bool last = false;
        explicit bool_collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override {
            if (in.read() != last) ++toggles;
            last = in.read();
        }
    } sink("sink");
    tdf::signal<double> s1("s1");
    tdf::signal<bool> s2("s2");
    src.out.bind(s1);
    cmp.in.bind(s1);
    cmp.out.bind(s2);
    sink.in.bind(s2);

    sim.run(100_us);
    EXPECT_EQ(sink.toggles, 1);  // ripple < hysteresis: exactly one switch
}

TEST(sigma_delta, dc_average_tracks_input) {
    de::simulation_context sim;
    lib::waveform_source src("src", sca::util::waveform::dc(0.25));
    src.set_timestep(1.0, de::time_unit::us);
    lib::sigma_delta_modulator mod("mod", 2, 1.0);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    mod.in.bind(s1);
    mod.out.bind(s2);
    sink.in.bind(s2);

    sim.run(20_ms);
    EXPECT_NEAR(sca::util::mean(sink.samples), 0.25, 0.01);
    for (double v : sink.samples) EXPECT_TRUE(v == 1.0 || v == -1.0);
}

TEST(sigma_delta, sinc3_decimation_recovers_sine) {
    de::simulation_context sim;
    lib::sine_source src("src", 0.5, 1e3);
    src.set_timestep(1.0, de::time_unit::us);  // 1 MHz, OSR 64 -> 15.6 kHz out
    lib::sigma_delta_modulator mod("mod", 2, 1.0);
    lib::sinc3_decimator dec("dec", 64);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
    src.out.bind(s1);
    mod.in.bind(s1);
    mod.out.bind(s2);
    dec.in.bind(s2);
    dec.out.bind(s3);
    sink.in.bind(s3);

    sim.run(50_ms);
    std::vector<double> tail(sink.samples.begin() + 16, sink.samples.end());
    const double sinad = sca::util::sinad_db(tail, 1e6 / 64.0);
    EXPECT_GT(sinad, 35.0);  // 2nd-order sigma-delta at OSR 64
}

TEST(pipeline_adc, ideal_enob_close_to_nominal) {
    de::simulation_context sim;
    lib::sine_source src("src", 0.95, 997.0);  // avoid coherent sampling
    src.set_timestep(10.0, de::time_unit::us);
    lib::pipeline_adc adc("adc", 9, 1.0);  // 10-bit
    collector sink("sink");
    tdf::signal<double> s1("s1"), s3("s3");
    tdf::signal<std::int64_t> s2("s2");
    src.out.bind(s1);
    adc.in.bind(s1);
    adc.code.bind(s2);
    adc.analog_estimate.bind(s3);
    sink.in.bind(s3);

    sim.run(82_ms);  // 8192 samples at 100 kHz
    std::vector<double> tail(sink.samples.end() - 8192, sink.samples.end());
    const double enob = sca::util::enob(sca::util::sinad_db(tail, 100e3));
    EXPECT_GT(enob, 8.5);
}

TEST(pipeline_adc, correction_absorbs_comparator_offsets) {
    auto run_enob = [](bool correction) {
        de::simulation_context sim;
        lib::sine_source src("src", 0.9, 997.0);
        src.set_timestep(10.0, de::time_unit::us);
        lib::pipeline_adc adc("adc", 9, 1.0);
        std::vector<lib::pipeline_stage_params> params(9);
        for (auto& p : params) p.offset = 0.1;  // large comparator offset
        adc.set_stage_params(params);
        adc.set_digital_correction(correction);
        collector sink("sink");
        tdf::signal<double> s1("s1"), s3("s3");
        tdf::signal<std::int64_t> s2("s2");
        src.out.bind(s1);
        adc.in.bind(s1);
        adc.code.bind(s2);
        adc.analog_estimate.bind(s3);
        sink.in.bind(s3);
        sim.run(42_ms);
        std::vector<double> tail(sink.samples.end() - 4096, sink.samples.end());
        return sca::util::enob(sca::util::sinad_db(tail, 100e3));
    };
    const double with = run_enob(true);
    const double without = run_enob(false);
    EXPECT_GT(with, without + 2.0);  // correction buys several bits back
    EXPECT_GT(with, 8.0);
}

TEST(pwm, duty_cycle_sets_high_time) {
    de::simulation_context sim;
    de::signal<double> duty("duty", 0.25);
    de::signal<bool> out("out", false);
    lib::pwm gen("gen", 10_us);
    gen.duty.bind(duty);
    gen.out.bind(out);

    std::vector<std::pair<double, bool>> log;
    auto& watch = sim.register_method("watch", [&] {
        log.emplace_back(sim.now().to_seconds(), out.read());
    });
    watch.dont_initialize();
    watch.make_sensitive(out.value_changed_event());

    sim.run(30_us);
    // Rising at 0,10u,20u..., falling at 2.5u,12.5u,...
    ASSERT_GE(log.size(), 5U);
    EXPECT_NEAR(log[1].first - log[0].first, 2.5e-6, 1e-12);
    EXPECT_NEAR(log[2].first - log[0].first, 10e-6, 1e-12);
}

TEST(mixer, produces_sum_and_difference_tones) {
    de::simulation_context sim;
    lib::sine_source rf("rf", 1.0, 12e3);
    rf.set_timestep(2.0, de::time_unit::us);  // fs = 500 kHz
    lib::sine_source lo("lo", 1.0, 10e3);
    lib::mixer mx("mx", 2.0);  // conversion gain 2 -> products amplitude 1
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
    rf.out.bind(s1);
    lo.out.bind(s2);
    mx.rf.bind(s1);
    mx.lo.bind(s2);
    mx.out.bind(s3);
    sink.in.bind(s3);

    sim.run(40_ms);
    std::vector<double> tail(sink.samples.end() - 8192, sink.samples.end());
    const auto spec = sca::util::magnitude_spectrum(tail, 500e3);
    double at_2k = 0.0, at_22k = 0.0, at_12k = 0.0;
    for (const auto& bin : spec) {
        if (std::abs(bin.frequency - 2e3) < 100.0) at_2k = std::max(at_2k, bin.magnitude);
        if (std::abs(bin.frequency - 22e3) < 100.0) at_22k = std::max(at_22k, bin.magnitude);
        if (std::abs(bin.frequency - 12e3) < 100.0) at_12k = std::max(at_12k, bin.magnitude);
    }
    EXPECT_GT(at_2k, 0.8);   // difference tone
    EXPECT_GT(at_22k, 0.8);  // sum tone
    EXPECT_LT(at_12k, 0.05);  // RF feedthrough suppressed (ideal mixer)
}

TEST(oscillator, quadrature_outputs_are_orthogonal) {
    de::simulation_context sim;
    lib::quadrature_oscillator osc("osc", 1.0, 5e3);
    osc.set_timestep(1.0, de::time_unit::us);
    collector si("si"), sq("sq");
    tdf::signal<double> s1("s1"), s2("s2");
    osc.out_i.bind(s1);
    osc.out_q.bind(s2);
    si.in.bind(s1);
    sq.in.bind(s2);

    sim.run(5_ms);
    for (std::size_t i = 0; i < si.samples.size(); ++i) {
        const double mag = si.samples[i] * si.samples[i] + sq.samples[i] * sq.samples[i];
        EXPECT_NEAR(mag, 1.0, 1e-9);
    }
}

TEST(noise_sources, statistics_match_parameters) {
    de::simulation_context sim;
    lib::gaussian_noise_source g("g", 0.5, 42);
    g.set_timestep(1.0, de::time_unit::us);
    lib::uniform_noise_source u("u", 1.0, 43);
    u.set_timestep(1.0, de::time_unit::us);  // separate cluster: own anchor
    collector cg("cg"), cu("cu");
    tdf::signal<double> s1("s1"), s2("s2");
    g.out.bind(s1);
    u.out.bind(s2);
    cg.in.bind(s1);
    cu.in.bind(s2);

    sim.run(100_ms);
    EXPECT_NEAR(sca::util::rms(cg.samples), 0.5, 0.02);
    EXPECT_NEAR(sca::util::mean(cg.samples), 0.0, 0.02);
    double umax = 0.0;
    for (double v : cu.samples) umax = std::max(umax, std::abs(v));
    EXPECT_LE(umax, 1.0);
    EXPECT_GT(umax, 0.95);
}

TEST(external_ode, wrapped_rk4_matches_eln_rc) {
    // The same RC lowpass integrated by the "external" RK4 engine and by the
    // native ELN solver must agree (open solver-coupling objective).
    const double r = 1000.0, c = 100e-9;

    de::simulation_context sim;
    sca::util::object_bag bag;
    // Native ELN reference.
    sca::eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    bag.make<sca::eln::vsource>("vs", net, vin, gnd,
                          sca::eln::waveform::pulse(0.0, 1.0, 5e-6, 1e-9, 1e-9, 1.0, 2.0));
    bag.make<sca::eln::resistor>("r", net, vin, vout, r);
    bag.make<sca::eln::capacitor>("c", net, vout, gnd, c);

    // External engine wrapped in TDF.
    auto engine = std::make_unique<sca::solver::rk4_solver>(1e-7);
    engine->configure(1, 1,
                      [r, c](double, const std::vector<double>& x,
                             const std::vector<double>& u, std::vector<double>& dx) {
                          dx[0] = (u[0] - x[0]) / (r * c);
                      });
    engine->set_state({0.0});
    lib::external_ode ext("ext", std::move(engine));
    ext.set_timestep(1.0, de::time_unit::us);
    lib::waveform_source stim("stim", sca::util::waveform::pulse(0.0, 1.0, 5e-6, 1e-9,
                                                                 1e-9, 1.0, 2.0));
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    stim.out.bind(s1);
    ext.in.bind(s1);
    ext.out.bind(s2);
    sink.in.bind(s2);

    sca::util::memory_trace rec;
    core::record(sim, rec, 5_us);
    rec.add_channel("eln", [&] { return net.voltage(vout); });
    rec.add_channel("ext", [&] { return sink.samples.empty() ? 0.0 : sink.samples.back(); });
    sim.run(400_us);

    const auto eln_v = rec.column(0);
    const auto ext_v = rec.column(1);
    for (std::size_t i = 2; i < eln_v.size(); ++i) {
        EXPECT_NEAR(eln_v[i], ext_v[i], 0.02) << i;
    }
}
