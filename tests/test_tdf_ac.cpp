// Frequency-domain models of dataflow components (paper §4, [6]) and the
// cascade analysis built on them: the model must agree with the measured
// time-domain behavior of the very same module.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "kernel/context.hpp"
#include "lib/amplifier.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "solver/ac.hpp"
#include "tdf/module.hpp"
#include "util/measure.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace lib = sca::lib;
namespace solver = sca::solver;
using namespace sca::de::literals;

namespace {

struct recorder : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    explicit recorder(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { samples.push_back(in.read()); }
};

/// Measured steady-state sine gain and modeled |H| of a freshly built
/// module, both within one simulation context.
struct gain_pair {
    double measured;
    double modeled;
};

template <typename MakeModule>
gain_pair compare_gain(MakeModule make, double freq, const de::time& step,
                       double seconds) {
    de::simulation_context sim;
    lib::sine_source src("src", 1.0, freq);
    src.set_timestep(step);
    auto m = make();
    recorder rec("rec");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    m->in.bind(s1);
    m->out.bind(s2);
    rec.in.bind(s2);
    sim.run(de::time::from_seconds(seconds));
    double amp = 0.0;
    for (std::size_t i = rec.samples.size() / 2; i < rec.samples.size(); ++i) {
        amp = std::max(amp, std::abs(rec.samples[i]));
    }
    return {amp, std::abs(m->ac_response(freq))};
}

}  // namespace

TEST(tdf_ac, fir_model_matches_time_domain) {
    const auto g = compare_gain(
        [] {
            return std::make_unique<lib::fir>(de::module_name("filt"),
                                              lib::fir::design_lowpass(63, 0.1));
        },
        2e3, de::time(10.0, de::time_unit::us), 40e-3);  // fs = 100 kHz, fc = 10 kHz
    EXPECT_NEAR(g.measured, g.modeled, 0.02);

    // Static properties on a second instance (post-elaboration).
    de::simulation_context sim;
    lib::fir filt("filt2", lib::fir::design_lowpass(63, 0.1));
    struct src_t : tdf::module {
        tdf::out<double> out;
        explicit src_t(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
        void processing() override { out.write(0.0); }
    } s("s");
    recorder r("r");
    tdf::signal<double> s1("s1"), s2("s2");
    s.out.bind(s1);
    filt.in.bind(s1);
    filt.out.bind(s2);
    r.in.bind(s2);
    sim.elaborate();
    EXPECT_LT(std::abs(filt.ac_response(30e3)), 0.01);          // stopband
    EXPECT_NEAR(std::abs(filt.ac_response(0.0)), 1.0, 1e-12);  // unity DC
}

TEST(tdf_ac, biquad_model_matches_time_domain) {
    const auto c = lib::bilinear({1.0}, {1.0, 1.0 / (2.0 * std::numbers::pi * 2e3)}, 100e3);
    const auto g = compare_gain(
        [c] { return std::make_unique<lib::biquad>(de::module_name("filt"), c); }, 2e3,
        de::time(10.0, de::time_unit::us), 40e-3);
    EXPECT_NEAR(g.measured, g.modeled, 0.02);
    EXPECT_NEAR(g.modeled, 1.0 / std::sqrt(2.0), 0.01);  // corner of the prototype
}

TEST(tdf_ac, amplifier_model_is_single_pole) {
    de::simulation_context sim;
    lib::amplifier amp("amp", 10.0);
    amp.set_bandwidth(5e3);
    EXPECT_NEAR(std::abs(amp.ac_response(0.0)), 10.0, 1e-12);
    EXPECT_NEAR(std::abs(amp.ac_response(5e3)), 10.0 / std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(solver::phase_deg(amp.ac_response(5e3)), -45.0, 1e-6);
}

TEST(tdf_ac, cascade_multiplies_responses) {
    de::simulation_context sim;
    lib::amplifier a1("a1", 4.0);
    a1.set_bandwidth(10e3);
    lib::amplifier a2("a2", 2.5);
    a2.set_bandwidth(100e3);
    const std::vector<const tdf::module*> chain{&a1, &a2};
    const auto pts = tdf::cascade_response(chain, {1e2, 1e2, 1});
    EXPECT_NEAR(std::abs(pts[0].value), 10.0, 0.01);  // 4 * 2.5 well below poles
    const auto hi = tdf::cascade_response(chain, {10e3, 10e3, 1});
    EXPECT_NEAR(std::abs(hi[0].value),
                std::abs(a1.ac_response(10e3)) * std::abs(a2.ac_response(10e3)), 1e-9);
}

TEST(tdf_ac, modules_without_model_are_rejected) {
    de::simulation_context sim;
    struct plain : tdf::module {
        tdf::in<double> in;
        tdf::out<double> out;
        explicit plain(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
        void processing() override { out.write(in.read()); }
    } p("p");
    EXPECT_FALSE(p.has_ac_model());
    const std::vector<const tdf::module*> chain{&p};
    EXPECT_THROW((void)tdf::cascade_response(chain, {1e3, 1e3, 1}),
                 sca::util::error);
    EXPECT_THROW((void)tdf::cascade_response({}, {1e3, 1e3, 1}), sca::util::error);
}

TEST(tdf_ac, fir_response_before_elaboration_is_rejected) {
    de::simulation_context sim;
    lib::fir filt("filt", {0.5, 0.5});
    EXPECT_THROW((void)filt.ac_response(1e3), sca::util::error);
}
