// Top-down refinement (paper §4, [9]): "a top-down modeling and simulation
// methodology based on a refinement process ... the synchronization
// mechanism between synchronous dataflow and continuous-time models at
// different levels of abstraction, from high-level mathematical models to
// more physical, pin-accurate, models."
//
// The same lowpass function behind the same TDF interface at three
// abstraction levels:
//   level 0 - discrete-time behavioral model (lib::amplifier one-pole)
//   level 1 - mathematical continuous model (LSF transfer function)
//   level 2 - pin-accurate electrical model (ELN RC network)
// The testbench does not change; the refined models must agree.  Also covers
// the DC analysis driver on the most refined view.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>

#include "kernel/context.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "lib/amplifier.hpp"
#include "lib/oscillator.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "solver/dc.hpp"
#include "tdf/port.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
using namespace sca::de::literals;

namespace {

constexpr double k_fc = 2e3;  // the function under refinement: 2 kHz lowpass
constexpr double k_r = 1000.0;
const double k_c = 1.0 / (2.0 * std::numbers::pi * k_fc * k_r);

/// The refinement interface: anything that maps one TDF stream to another.
/// Implementations own their internals; the testbench only sees ports.
struct filter_under_refinement {
    virtual ~filter_under_refinement() = default;
    virtual void connect(tdf::signal<double>& in, tdf::signal<double>& out) = 0;
};

/// Level 0: discrete-time behavioral model.
struct behavioral_filter : filter_under_refinement {
    lib::amplifier amp{de::module_name("amp"), 1.0};
    behavioral_filter() { amp.set_bandwidth(k_fc); }
    void connect(tdf::signal<double>& in, tdf::signal<double>& out) override {
        amp.in.bind(in);
        amp.out.bind(out);
    }
};

/// Level 1: continuous mathematical model (Laplace transfer function).
struct mathematical_filter : filter_under_refinement {
    lsf::system sys{de::module_name("sys")};
    std::unique_ptr<lsf::from_tdf> from;
    std::unique_ptr<lsf::ltf_nd> tf;
    std::unique_ptr<lsf::to_tdf> to;
    mathematical_filter() {
        auto u = sys.create_signal("u");
        auto y = sys.create_signal("y");
        from = std::make_unique<lsf::from_tdf>("from", sys, u);
        const double w0 = 2.0 * std::numbers::pi * k_fc;
        tf = std::make_unique<lsf::ltf_nd>("tf", sys, u, y, std::vector<double>{1.0},
                                           std::vector<double>{1.0, 1.0 / w0});
        to = std::make_unique<lsf::to_tdf>("to", sys, y);
    }
    void connect(tdf::signal<double>& in, tdf::signal<double>& out) override {
        from->inp.bind(in);
        to->outp.bind(out);
    }
};

/// Level 2: pin-accurate electrical model.
struct electrical_filter : filter_under_refinement {
    eln::network net{de::module_name("net")};
    std::unique_ptr<eln::tdf_vsource> drive;
    std::unique_ptr<eln::resistor> r;
    std::unique_ptr<eln::capacitor> c;
    std::unique_ptr<eln::tdf_vsink> probe;
    electrical_filter() {
        auto gnd = net.ground();
        auto vin = net.create_node("vin");
        auto vout = net.create_node("vout");
        drive = std::make_unique<eln::tdf_vsource>("drive", net, vin, gnd);
        r = std::make_unique<eln::resistor>("r", net, vin, vout, k_r);
        c = std::make_unique<eln::capacitor>("c", net, vout, gnd, k_c);
        probe = std::make_unique<eln::tdf_vsink>("probe", net, vout, gnd);
    }
    void connect(tdf::signal<double>& in, tdf::signal<double>& out) override {
        drive->inp.bind(in);
        probe->outp.bind(out);
    }
};

struct recorder : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    explicit recorder(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { samples.push_back(in.read()); }
};

/// The fixed testbench: a sine through the implementation under test.
double steady_state_amplitude(filter_under_refinement& impl, double freq) {
    lib::sine_source src("src", 1.0, freq);
    src.set_timestep(2.0, de::time_unit::us);
    recorder rec("rec");
    tdf::signal<double> s_in("s_in"), s_out("s_out");
    src.out.bind(s_in);
    impl.connect(s_in, s_out);
    rec.in.bind(s_out);

    de::simulation_context::current().run(de::time::from_seconds(5e-3));
    double amp = 0.0;
    for (std::size_t i = rec.samples.size() / 2; i < rec.samples.size(); ++i) {
        amp = std::max(amp, std::abs(rec.samples[i]));
    }
    return amp;
}

}  // namespace

class refinement_levels : public ::testing::TestWithParam<double> {};

TEST_P(refinement_levels, all_abstraction_levels_agree) {
    const double freq = GetParam();
    const double analytic =
        1.0 / std::sqrt(1.0 + (freq / k_fc) * (freq / k_fc));

    double amp[3] = {};
    {
        de::simulation_context sim;
        behavioral_filter f;
        amp[0] = steady_state_amplitude(f, freq);
    }
    {
        de::simulation_context sim;
        mathematical_filter f;
        amp[1] = steady_state_amplitude(f, freq);
    }
    {
        de::simulation_context sim;
        electrical_filter f;
        amp[2] = steady_state_amplitude(f, freq);
    }
    for (int level = 0; level < 3; ++level) {
        EXPECT_NEAR(amp[level], analytic, 0.03)
            << "abstraction level " << level << " at " << freq << " Hz";
    }
    // Adjacent refinement steps stay close to each other, not only to the
    // ideal curve (the refinement-check criterion of [9]).
    EXPECT_NEAR(amp[0], amp[1], 0.03);
    EXPECT_NEAR(amp[1], amp[2], 0.03);
}

INSTANTIATE_TEST_SUITE_P(frequencies, refinement_levels,
                         ::testing::Values(200.0, 1000.0, 2000.0, 8000.0));

TEST(refinement, dc_solve_reports_named_operating_point) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    bag.make<eln::vsource>("vs", net, a, gnd, eln::waveform::dc(9.0));
    bag.make<eln::resistor>("r1", net, a, b, 2000.0);
    bag.make<eln::resistor>("r2", net, b, gnd, 1000.0);
    sim.elaborate();

    const auto& sys = net.equations();
    const auto x = sca::solver::dc_solve(sys, 0.0);
    ASSERT_EQ(x.size(), 3U);  // v(a), v(b), i(vs.i)
    double va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (sys.unknown_name(i) == "v(a)") va = x[i];
        if (sys.unknown_name(i) == "v(b)") vb = x[i];
    }
    EXPECT_NEAR(va, 9.0, 1e-12);
    EXPECT_NEAR(vb, 3.0, 1e-12);
    EXPECT_NEAR(x[b.index()], 3.0, 1e-12);

    std::ostringstream os;
    sca::solver::write_operating_point(sys, x, os);
    EXPECT_NE(os.str().find("v(b)"), std::string::npos);
    EXPECT_NE(os.str().find("DC operating point"), std::string::npos);
}
