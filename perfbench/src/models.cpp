#include "models.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/context.hpp"
#include "kernel/signal.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "lib/pwm.hpp"
#include "lib/sigma_delta.hpp"
#include "tdf/block.hpp"
#include "tdf/connect.hpp"
#include "tdf/module.hpp"

namespace perfbench::models {

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;
namespace tdf = sca::tdf;

namespace {

constexpr double k_pi = std::numbers::pi;
constexpr std::size_t k_fir_taps = 31;
constexpr double k_fir_cutoff = 0.2;  // of the output rate (12.5 kHz)
/// Tone bins: 16..400 of the 4096-point window (244 Hz .. 6.1 kHz).
constexpr std::int64_t k_min_bin = 16;
constexpr std::int64_t k_max_bin = 400;

/// Sums the channel outputs sample by sample.
class summer : public tdf::module {
public:
    tdf::out<double> out;

    summer(const de::module_name& nm, unsigned n) : tdf::module(nm), out("out") {
        inputs_.reserve(n);
        for (unsigned k = 0; k < n; ++k) {
            inputs_.push_back(std::make_unique<tdf::in<double>>("in" + std::to_string(k)));
        }
    }

    [[nodiscard]] tdf::in<double>& input(unsigned k) { return *inputs_.at(k); }

    void processing() override {
        double acc = 0.0;
        for (const auto& in : inputs_) acc += in->read();
        out.write(acc);
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        double* y = blk.out_span(out);
        const std::uint64_t n = blk.count();
        for (std::uint64_t i = 0; i < n; ++i) y[i] = 0.0;
        for (const auto& in : inputs_) {
            const double* x = blk.in_span(*in);
            for (std::uint64_t i = 0; i < n; ++i) y[i] += x[i];
        }
    }

private:
    std::vector<std::unique_ptr<tdf::in<double>>> inputs_;
};

/// Keeps the first `keep` samples for the oracle and counts the rest.
class capture_sink : public tdf::module {
public:
    tdf::in<double> in;

    capture_sink(const de::module_name& nm, std::size_t keep) : tdf::module(nm), in("in") {
        kept_.reserve(keep);
        keep_ = keep;
    }

    void processing() override { take(in.read()); }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        for (std::uint64_t i = 0; i < blk.count(); ++i) take(x[i]);
    }

    [[nodiscard]] const std::vector<double>& kept() const noexcept { return kept_; }
    [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

private:
    void take(double v) {
        if (kept_.size() < keep_) kept_.push_back(v);
        ++seen_;
    }

    std::size_t keep_ = 0;
    std::vector<double> kept_;
    std::uint64_t seen_ = 0;
};

capture_sink& find_capture(core::testbench& tb) {
    auto* sink = dynamic_cast<capture_sink*>(tb.context().find_object("capture"));
    if (sink == nullptr) throw std::runtime_error("receiver bench has no capture sink");
    return *sink;
}

std::string channel_key(const char* what, unsigned k) { return what + std::to_string(k); }

double tone_frequency(double bin) { return bin * k_output_rate / static_cast<double>(k_window); }

/// Amplitude of the DFT bin at `cycles` periods per `n` samples of x[first..].
double tone_amplitude(const std::vector<double>& x, std::size_t first, std::size_t n,
                      double cycles) {
    // Goertzel recurrence at an exact bin: no leakage from other exact bins.
    const double w = 2.0 * k_pi * cycles / static_cast<double>(n);
    const double coeff = 2.0 * std::cos(w);
    double s1 = 0.0, s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double s0 = x[first + i] + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    const double re = s1 - s2 * std::cos(w);
    const double im = s2 * std::sin(w);
    return 2.0 * std::hypot(re, im) / static_cast<double>(n);
}

}  // namespace

// ------------------------------------------------------------- receiver --

const core::scenario& receiver() {
    static const core::scenario sc = core::scenario::define(
        "perfbench_receiver", [](core::testbench& tb, const core::params& p) {
            const auto taps = lib::fir::design_lowpass(k_fir_taps, k_fir_cutoff);
            auto& sum = tb.make<summer>("sum", k_channels);
            for (unsigned k = 0; k < k_channels; ++k) {
                auto& src = tb.make<lib::sine_source>(
                    channel_key("src", k), p.number(channel_key("amp", k)),
                    tone_frequency(p.number(channel_key("bin", k))));
                src.set_timestep(de::time::from_seconds(k_source_step_s));
                auto& adc = tb.make<lib::sigma_delta_adc>(channel_key("adc", k), 2, 1.0, k_osr);
                auto& fir = tb.make<lib::fir>(channel_key("fir", k), taps);
                connect(src.out, adc.in);
                connect(adc.out, fir.in);
                connect(fir.out, sum.input(k));
            }
            auto& sink = tb.make<capture_sink>("capture", k_settle + k_window);
            tb.probe("out", connect(sum.out, sink.in));
            const double output_period = k_source_step_s * k_osr;
            tb.set_sample_period(de::time::from_seconds(output_period * k_monitor_every));
            tb.set_stop_time(
                de::time::from_seconds(output_period * static_cast<double>(k_settle + k_window)));
        });
    return sc;
}

core::params receiver_point(input_rng& rng) {
    core::params p;
    std::vector<std::int64_t> used;
    for (unsigned k = 0; k < k_channels; ++k) {
        std::int64_t bin = 0;
        do {
            bin = rng.integer(k_min_bin, k_max_bin);
        } while (std::find(used.begin(), used.end(), bin) != used.end());
        used.push_back(bin);
        p.set(channel_key("bin", k), static_cast<double>(bin));
        p.set(channel_key("amp", k), rng.uniform(0.1, 0.4));
    }
    return p;
}

const std::vector<double>& receiver_capture(core::testbench& tb) {
    return find_capture(tb).kept();
}

std::uint64_t receiver_outputs(core::testbench& tb) { return find_capture(tb).seen(); }

double receiver_amplitude_error(const core::params& p, const std::vector<double>& out) {
    if (out.size() < k_settle + k_window) return INFINITY;
    const auto taps = lib::fir::design_lowpass(k_fir_taps, k_fir_cutoff);
    double worst = 0.0;
    for (unsigned k = 0; k < k_channels; ++k) {
        const double bin = p.number(channel_key("bin", k));
        const double f = tone_frequency(bin);
        // sinc^3 decimator: three length-OSR boxcars at the oversampled rate.
        const double x = k_pi * f * k_source_step_s;
        const double boxcar = std::sin(x * k_osr) / (k_osr * std::sin(x));
        const double sinc3 = std::abs(boxcar * boxcar * boxcar);
        // FIR at the output rate.
        std::complex<double> h = 0.0;
        for (std::size_t n = 0; n < taps.size(); ++n) {
            h += taps[n] * std::polar(1.0, -2.0 * k_pi * f * static_cast<double>(n) / k_output_rate);
        }
        // The second-order modulator's signal transfer function is exactly 1.
        const double expected = p.number(channel_key("amp", k)) * sinc3 * std::abs(h);
        const double measured = tone_amplitude(out, k_settle, k_window, bin);
        worst = std::max(worst, std::abs(measured - expected) / expected);
    }
    return worst;
}

// ----------------------------------------------------------------- buck --

const core::scenario& buck() {
    static const core::scenario sc = core::scenario::define(
        "perfbench_buck", [](core::testbench& tb, const core::params& p) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(de::time::from_seconds(k_buck_step_s));
            auto gnd = net.ground();
            auto vsrc = net.create_node("vsrc");
            auto vin = net.create_node("vin");
            auto sw = net.create_node("sw");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vsrc, gnd, eln::waveform::dc(24.0));
            tb.make<eln::resistor>("esr", net, vsrc, vin, 0.01);
            tb.make<eln::capacitor>("cin", net, vin, gnd, 10e-6);
            auto& hi = tb.make<eln::de_rswitch>("hi_side", net, vin, sw, 0.05, 1e6);
            tb.make<eln::resistor>("freewheel", net, sw, gnd, 0.5);
            tb.make<eln::inductor>("filter_l", net, sw, vout, 100e-6);
            tb.make<eln::capacitor>("filter_c", net, vout, gnd, 220e-6);
            tb.make<eln::resistor>("load", net, vout, gnd, p.number("load"));

            auto& duty = tb.make<de::signal<double>>("duty", p.number("duty"));
            auto& gate = tb.make<de::signal<bool>>("gate", false);
            auto& pwm = tb.make<lib::pwm>(
                "pwm", de::time(p.number("period_us"), de::time_unit::us));
            pwm.duty.bind(duty);
            pwm.out.bind(gate);
            hi.ctrl.bind(gate);

            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_mean", [&tb] {
                const std::vector<double> v = tb.waveform("vout");
                double acc = 0.0;
                for (std::size_t i = v.size() / 2; i < v.size(); ++i) acc += v[i];
                return acc / static_cast<double>(v.size() - v.size() / 2);
            });
            tb.set_sample_period(de::time(5.0, de::time_unit::us));
            tb.set_stop_time(de::time::from_seconds(k_buck_stop_s));
        });
    return sc;
}

core::params buck_point(input_rng& rng) {
    core::params p;
    p.set("load", rng.uniform(2.0, 8.0));
    p.set("duty", rng.uniform(0.2, 0.8));
    p.set("period_us", static_cast<double>(rng.integer(10, 40)));
    return p;
}

// ------------------------------------------------------------ stream_rc --

const core::scenario& stream_rc() {
    static const core::scenario sc = core::scenario::define(
        "perfbench_stream_rc", [](core::testbench& tb, const core::params& p) {
            const double f = 1.0 / (p.number("period_samples") * k_stream_step_s);
            auto& src = tb.make<lib::sine_source>("src", 1.0, f);
            src.set_timestep(de::time::from_seconds(k_stream_step_s));
            auto& net = tb.make<eln::network>("net");
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            auto& drive = tb.make<eln::tdf_vsource>("drive", net, vin, gnd);
            const double r = 1e3;
            tb.make<eln::resistor>("r", net, vin, vout, r);
            tb.make<eln::capacitor>("c", net, vout, gnd, 1.0 / (2.0 * k_pi * r * p.number("fc")));
            connect(src.out, drive.inp);
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.set_sample_period(de::time::from_seconds(k_stream_step_s));
            tb.set_stop_time(de::time::from_seconds(k_stream_stop_s));
        });
    return sc;
}

core::params stream_point(input_rng& rng) {
    core::params p;
    p.set("period_samples", static_cast<double>(rng.integer(100, 500)));
    p.set("fc", rng.uniform(1e3, 20e3));
    return p;
}

double stream_amplitude_error(const core::params& p, const std::vector<double>& vout) {
    const auto period = static_cast<std::size_t>(p.number("period_samples"));
    const auto settle = static_cast<std::size_t>(5e-3 / k_stream_step_s);
    if (vout.size() < settle + period) return INFINITY;
    const std::size_t periods = (vout.size() - settle) / period;
    const double f = 1.0 / (static_cast<double>(period) * k_stream_step_s);
    const double ratio = f / p.number("fc");
    const double expected = 1.0 / std::sqrt(1.0 + ratio * ratio);
    const double measured = tone_amplitude(vout, vout.size() - periods * period,
                                           periods * period, static_cast<double>(periods));
    return std::abs(measured - expected) / expected;
}

}  // namespace perfbench::models
