// Shared model-building helpers for the benchmark suite.
#ifndef SCA_BENCH_UTIL_HPP
#define SCA_BENCH_UTIL_HPP

#include <memory>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "tdf/block.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"

namespace bench_util {

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;

/// TDF sine source with configurable timestep.
struct sine_src : tdf::module {
    tdf::out<double> out;
    double amp, freq;
    de::time ts;
    sine_src(const de::module_name& nm, double a, double f, de::time step)
        : tdf::module(nm), out("out"), amp(a), freq(f), ts(step) {}
    void set_attributes() override { set_timestep(ts); }
    void processing() override {
        out.write(amp * std::sin(2.0 * 3.141592653589793 * freq *
                                 tdf_time().to_seconds()));
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        double* y = blk.out_span(out);
        for (std::uint64_t i = 0; i < blk.count(); ++i) {
            y[i] = amp * std::sin(2.0 * 3.141592653589793 * freq *
                                  blk.time_at(i).to_seconds());
        }
    }
};

/// TDF sink that only consumes (keeps the cluster busy end to end).
struct null_sink : tdf::module {
    tdf::in<double> in;
    double last = 0.0;
    explicit null_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override {
        for (unsigned k = 0; k < in.rate(); ++k) last = in.read(k);
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        last = x[blk.count() * in.rate() - 1];
    }
};

/// TDF gain stage.
struct gain_stage : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    double k;
    gain_stage(const de::module_name& nm, double gain)
        : tdf::module(nm), in("in"), out("out"), k(gain) {}
    void processing() override { out.write(k * in.read()); }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        double* y = blk.out_span(out);
        for (std::uint64_t i = 0; i < blk.count(); ++i) y[i] = k * x[i];
    }
};

/// Owning bundle for an RC ladder network: source -> N sections -> load.
struct rc_ladder {
    std::unique_ptr<eln::network> net;
    std::vector<std::unique_ptr<eln::component>> parts;
    eln::node out_node;

    rc_ladder(std::size_t sections, de::time step, double r = 100.0, double c = 1e-9) {
        net = std::make_unique<eln::network>(de::module_name("ladder"));
        net->set_timestep(step);
        auto gnd = net->ground();
        auto prev = net->create_node("n0");
        parts.push_back(std::make_unique<eln::vsource>(
            "vs", *net, prev, gnd, eln::waveform::sine(1.0, 10e3)));
        for (std::size_t i = 0; i < sections; ++i) {
            auto node = net->create_node("n" + std::to_string(i + 1));
            parts.push_back(std::make_unique<eln::resistor>(
                "r" + std::to_string(i), *net, prev, node, r));
            parts.push_back(std::make_unique<eln::capacitor>(
                "c" + std::to_string(i), *net, node, gnd, c));
            prev = node;
        }
        out_node = prev;
    }
};

/// Owning bundle for the PWM-switched buck converter shared by
/// bench_switching_restamp and the tests/test_eln.cpp bit-equivalence
/// tests (one netlist, so the bench's bit-identity claim stays covered):
/// 24 V source with ESR + input decoupling — which keep the MNA pivot
/// order value-stable across switch states — high-side DE-controlled
/// switch, freewheel path, LC output filter, 4 ohm load.
struct switched_buck {
    std::unique_ptr<eln::network> net;
    std::vector<std::unique_ptr<eln::component>> parts;
    eln::de_rswitch* hi_side = nullptr;
    eln::node vout_node;

    explicit switched_buck(de::time step = de::time(1.0, de::time_unit::us)) {
        net = std::make_unique<eln::network>(de::module_name("buck"));
        net->set_timestep(step);
        auto gnd = net->ground();
        auto vsrc = net->create_node("vsrc");
        auto vin = net->create_node("vin");
        auto sw = net->create_node("sw");
        vout_node = net->create_node("vout");
        parts.push_back(std::make_unique<eln::vsource>(
            "vs", *net, vsrc, gnd, eln::waveform::dc(24.0)));
        parts.push_back(std::make_unique<eln::resistor>("esr", *net, vsrc, vin, 0.01));
        parts.push_back(std::make_unique<eln::capacitor>("cin", *net, vin, gnd, 10e-6));
        auto hi = std::make_unique<eln::de_rswitch>("hi_side", *net, vin, sw, 0.05, 1e6);
        hi_side = hi.get();
        parts.push_back(std::move(hi));
        parts.push_back(
            std::make_unique<eln::resistor>("freewheel", *net, sw, gnd, 0.5));
        parts.push_back(
            std::make_unique<eln::inductor>("filter_l", *net, sw, vout_node, 100e-6));
        parts.push_back(
            std::make_unique<eln::capacitor>("filter_c", *net, vout_node, gnd, 220e-6));
        parts.push_back(
            std::make_unique<eln::resistor>("load", *net, vout_node, gnd, 4.0));
    }
};

}  // namespace bench_util

#endif  // SCA_BENCH_UTIL_HPP
