// Checkpoint/restore: full-state snapshots and deterministic replay.
//
// The contract under test (core/snapshot): snapshot a live simulation at
// time T, restore it into a fresh context (a stand-in for a fresh process:
// nothing is shared but the scenario registry and the snapshot file), run
// both to T+D — and the resumed waveforms are EXPECT_EQ-identical (bit
// equality, not tolerance) with the uninterrupted run, across every stateful
// layer: DE kernel, static/block/dynamic TDF, ELN switching networks, LSF,
// and the nonlinear DAE solver.  Robustness mirrors test_run_protocol.cpp:
// truncation at every byte, bad magic/checksum/version, and a structural
// fingerprint mismatch are refused with named diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/run_protocol.hpp"
#include "core/scenario.hpp"
#include "core/snapshot.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/nonlinear.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/context.hpp"
#include "kernel/signal.hpp"
#include "lib/filters.hpp"
#include "lsf/primitives.hpp"
#include "lsf/view.hpp"
#include "solver/equation_system.hpp"
#include "solver/nonlinear_dae.hpp"
#include "tdf/cluster.hpp"
#include "tdf/connect.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
namespace tdf = sca::tdf;
namespace wire = sca::core::wire;
using namespace sca::de::literals;

namespace {

// ------------------------------------------------- snapshot-capable modules --
// Custom stateful TDF modules implementing their own object hooks — the
// extension point every user module with private state uses.

/// Ramp source: the counter is the whole state.
struct snap_ramp : tdf::module {
    tdf::out<double> out;
    double next_value = 0.0;
    de::time step;

    snap_ramp(const de::module_name& nm, const de::time& s)
        : tdf::module(nm), out("out"), step(s) {}
    // step == zero leaves the module un-anchored (a dynamic neighbour then
    // owns the cluster timestep).
    void set_attributes() override {
        if (step > de::time::zero()) set_timestep(step);
    }
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) out.write(next_value++, k);
    }

    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override { w.f64(next_value); }
    void restore_state(sca::util::byte_reader& r) override { next_value = r.f64(); }
};

/// Leaky integrator consuming two tokens per firing through a one-token
/// input delay — multirate + delay exercise the ring positions.
struct snap_leaky : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    double y = 0.0;
    double a;

    snap_leaky(const de::module_name& nm, double alpha)
        : tdf::module(nm), in("in"), out("out"), a(alpha) {}
    void set_attributes() override {
        in.set_rate(2);
        in.set_delay(1);
    }
    void processing() override {
        for (unsigned j = 0; j < in.rate(); ++j) y += a * (in.read(j) - y);
        out.write(y);
    }

    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override { w.f64(y); }
    void restore_state(sca::util::byte_reader& r) override { y = r.f64(); }
};

/// Pass-through that retimes its cluster every period (dynamic TDF): the
/// timestep pattern is derived from the restored cluster cycle count, the
/// private flag rides through its own snapshot hooks.
struct snap_retimer : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    de::time base_step;
    bool slow = false;

    snap_retimer(const de::module_name& nm, const de::time& s)
        : tdf::module(nm), in("in"), out("out"), base_step(s) {}
    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override { set_timestep(base_step); }
    void processing() override { out.write(in.read()); }
    void change_attributes() override {
        slow = !slow;
        request_timestep(slow ? base_step * 2 : base_step);
    }

    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override { w.boolean(slow); }
    void restore_state(sca::util::byte_reader& r) override { slow = r.boolean(); }
};

// ------------------------------------------------------- scenario families --

/// Static TDF: ramp -> leaky integrator (rate 2, delay 1) -> probe.
void define_static_tdf() {
    core::scenario::define(
        "snap_static_tdf", core::params{{"alpha", 0.125}},
        [](core::testbench& tb, const core::params& p) {
            auto& src = tb.make<snap_ramp>("src", de::time(1.0, de::time_unit::us));
            auto& fil = tb.make<snap_leaky>("leaky", p.get("alpha", 0.125));
            auto& s1 = tb.make<tdf::signal<double>>("s1");
            auto& s2 = tb.make<tdf::signal<double>>("s2");
            src.out.bind(s1);
            fil.in.bind(s1);
            fil.out.bind(s2);
            tb.probe("y", s2);
            tb.measure("y_final", [&s2] { return s2.last_value(); });
            tb.set_sample_period(10_us);
            tb.set_stop_time(1_ms);
        });
}

/// Block TDF: the real DSP library kernels, multirate, under block execution.
void define_block_tdf() {
    core::scenario::define(
        "snap_block_tdf", core::params{},
        [](core::testbench& tb, const core::params&) {
            tdf::registry::of(tb.context()).set_default_block_execution(true);
            auto& src = tb.make<snap_ramp>("src", de::time(3.0, de::time_unit::us));
            auto& f = tb.make<lib::fir>("fir", lib::fir::design_lowpass(15, 0.2));
            auto& bq = tb.make<lib::biquad>(
                "bq", lib::biquad_coefficients{0.2, 0.3, 0.1, -0.4, 0.05});
            auto& up = tb.make<lib::interpolator>("up", 3U);
            auto& down = tb.make<lib::decimator>("down", 4U);
            auto& w1 = tb.make<tdf::signal<double>>("w1");
            auto& w2 = tb.make<tdf::signal<double>>("w2");
            auto& w3 = tb.make<tdf::signal<double>>("w3");
            auto& w4 = tb.make<tdf::signal<double>>("w4");
            auto& w5 = tb.make<tdf::signal<double>>("w5");
            src.out.bind(w1);
            f.in.bind(w1);
            f.out.bind(w2);
            bq.in.bind(w2);
            bq.out.bind(w3);
            up.in.bind(w3);
            up.out.bind(w4);
            down.in.bind(w4);
            down.out.bind(w5);
            tb.probe("y", w5);
            tb.measure("y_final", [&w5] { return w5.last_value(); });
            tb.set_sample_period(24_us);
            tb.set_stop_time(2400_us);
        });
}

/// ELN switching: RC network with a DE-controlled switch toggled by a kernel
/// process — linear solver, numeric-only refactors, forced-BE steps.
void define_eln_switching() {
    core::scenario::define(
        "snap_eln_switch", core::params{{"r", 1e3}, {"c", 100e-9}},
        [](core::testbench& tb, const core::params& p) {
            auto& ctl = tb.make<de::signal<bool>>("ctl", false);
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(2.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd,
                                  eln::waveform::sine(1.0, 2e3));
            tb.make<eln::resistor>("r", net, vin, vout, p.get("r", 1e3));
            tb.make<eln::capacitor>("c", net, vout, gnd, p.get("c", 100e-9));
            auto& sw = tb.make<eln::de_rswitch>("sw", net, vout, gnd, 50.0, 1e9);
            sw.ctrl.bind(ctl);
            // Kernel-side PWM: toggle every 50 us.  The toggler's state lives
            // in the DE signal, which the snapshot carries.
            tb.context().register_method("toggler", [&tb, &ctl] {
                ctl.write(!ctl.read());
                tb.context().next_trigger(50_us);
            });
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.set_sample_period(10_us);
            tb.set_stop_time(1_ms);
        });
}

/// LSF: sine source through gain + integrator (linear DAE view).
void define_lsf() {
    core::scenario::define(
        "snap_lsf", core::params{{"k", 3.0}},
        [](core::testbench& tb, const core::params& p) {
            auto& sys = tb.make<lsf::system>("sys");
            sys.set_timestep(1.0, de::time_unit::us);
            auto u = sys.create_signal("u");
            auto g = sys.create_signal("g");
            auto y = sys.create_signal("y");
            tb.make<lsf::source>("src", sys, u,
                                 lsf::waveform::sine(1.0, 5e3));
            tb.make<lsf::gain>("k", sys, u, g, p.get("k", 3.0));
            tb.make<lsf::integ>("i", sys, g, y, 1e3, 0.0);
            tb.probe("y", [&sys, y] { return sys.value(y); });
            tb.measure("y_final", [&sys, y] { return sys.value(y); });
            tb.set_sample_period(10_us);
            tb.set_stop_time(1_ms);
        });
}

/// Dynamic TDF: a retimer flips the cluster timestep every period, so the
/// restore path must re-install the right compiled schedule (cache or
/// recompile) before overlaying tokens.
void define_dynamic_tdf() {
    core::scenario::define(
        "snap_dynamic_tdf", core::params{},
        [](core::testbench& tb, const core::params&) {
            auto& src = tb.make<snap_ramp>("src", de::time::zero());
            auto& rt = tb.make<snap_retimer>("rt", de::time(5.0, de::time_unit::us));
            auto& s1 = tb.make<tdf::signal<double>>("s1");
            auto& s2 = tb.make<tdf::signal<double>>("s2");
            src.out.bind(s1);
            rt.in.bind(s1);
            rt.out.bind(s2);
            tb.probe("y", s2);
            tb.measure("y_final", [&s2] { return s2.last_value(); });
            tb.set_sample_period(20_us);
            tb.set_stop_time(2_ms);
        });
}

/// Nonlinear DAE: half-wave rectifier (diode + RC load) — Newton iteration,
/// adaptive internal steps, frozen LU pivot order.
void define_nonlinear() {
    core::scenario::define(
        "snap_nonlinear", core::params{{"c", 1e-6}},
        [](core::testbench& tb, const core::params& p) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(5.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd,
                                  eln::waveform::sine(5.0, 1e3));
            tb.make<eln::diode>("d", net, vin, vout);
            tb.make<eln::resistor>("rl", net, vout, gnd, 10e3);
            tb.make<eln::capacitor>("cl", net, vout, gnd, p.get("c", 1e-6));
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.set_sample_period(20_us);
            tb.set_stop_time(2_ms);
        });
}

/// The resistor of the "snap_diode_step" bench built last.
eln::resistor* g_step_resistor = nullptr;

/// Nonlinear DAE with an algebraic jump: 1 mA into 1 kOhm || diode, whose
/// resistor a test drops to 100 Ohm between two runs (the Newton solver
/// restarts at the next step).
void define_diode_step() {
    core::scenario::define(
        "snap_diode_step", core::params{},
        [](core::testbench& tb, const core::params&) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(1.0, de::time_unit::us);
            auto gnd = net.ground();
            auto n = net.create_node("n");
            tb.make<eln::isource>("is", net, gnd, n, eln::waveform::dc(1e-3));
            g_step_resistor = &tb.make<eln::resistor>("r", net, n, gnd, 1000.0);
            tb.make<eln::diode>("d", net, n, gnd);
            tb.probe("v", [&net, n] { return net.voltage(n); });
            tb.measure("v_final", [&net, n] { return net.voltage(n); });
            tb.set_sample_period(1_us);
            tb.set_stop_time(20_us);
        });
}

/// The resistor and network of the "snap_rc_value" bench built last.
eln::resistor* g_rc_resistor = nullptr;
eln::network* g_rc_network = nullptr;

/// 1 mA into 1 kOhm || 1 nF, whose resistor a test changes at run time.
void define_rc_value() {
    core::scenario::define(
        "snap_rc_value", core::params{},
        [](core::testbench& tb, const core::params&) {
            auto& net = tb.make<eln::network>("net");
            g_rc_network = &net;
            net.set_timestep(1.0, de::time_unit::us);
            auto gnd = net.ground();
            auto n = net.create_node("n");
            tb.make<eln::isource>("is", net, gnd, n, eln::waveform::dc(1e-3));
            g_rc_resistor = &tb.make<eln::resistor>("r", net, n, gnd, 1000.0);
            tb.make<eln::capacitor>("c", net, n, gnd, 1e-9);
            tb.probe("v", [&net, n] { return net.voltage(n); });
            tb.measure("v_final", [&net, n] { return net.voltage(n); });
            tb.set_sample_period(1_us);
            tb.set_stop_time(60_us);
        });
}

/// Kernel wakes only: "kicker" notifies the event "kick" 2 us after each of
/// its own timed wakes, 7 us apart; "waiter" waits for kick or a 5 us
/// timeout, whichever comes first, and folds each wake time into a signal.
void define_wakes() {
    core::scenario::define(
        "snap_wakes", core::params{},
        [](core::testbench& tb, const core::params&) {
            de::simulation_context& ctx = tb.context();
            auto& kick = tb.make<de::event>("kick");
            auto& s = tb.make<de::signal<double>>("s", 0.0);
            ctx.register_method("kicker", [&ctx, &kick] {
                kick.notify(2_us);
                ctx.next_trigger(7_us);
            });
            ctx.register_method("waiter", [&ctx, &kick, &s] {
                s.write(0.5 * s.read() + ctx.now().to_seconds() * 1e6);
                ctx.running_process()->next_trigger(5_us, kick);
            });
            tb.probe("s", s);
            tb.measure("s_final", [&s] { return s.read(); });
            tb.set_sample_period(1_us);
            tb.set_stop_time(200_us);
        });
}

/// Batch cap the "snap_batch_cap" scenario builds with: set by the test, not
/// a scenario parameter, so a resume can rebuild under another cap.
std::uint64_t g_batch_cap = tdf::cluster::k_default_max_batch_periods;

/// Ramp -> 31-tap FIR under the batch cap g_batch_cap: its rings are sized
/// for passes of that many periods.
void define_batch_cap() {
    core::scenario::define(
        "snap_batch_cap", core::params{},
        [](core::testbench& tb, const core::params&) {
            tdf::registry::of(tb.context()).set_default_max_batch_periods(g_batch_cap);
            auto& src = tb.make<snap_ramp>("src", de::time(1.0, de::time_unit::us));
            auto& f = tb.make<lib::fir>("fir", lib::fir::design_lowpass(31, 0.1));
            auto& w1 = tb.make<tdf::signal<double>>("w1");
            auto& w2 = tb.make<tdf::signal<double>>("w2");
            src.out.bind(w1);
            f.in.bind(w1);
            f.out.bind(w2);
            tb.probe("y", w2);
            tb.set_sample_period(1_us);
            tb.set_stop_time(1_ms);
        });
}

/// Tiny scenario for the byte-level robustness sweeps: small payload, fast
/// rebuilds.
void define_tiny() {
    core::scenario::define(
        "snap_tiny", core::params{},
        [](core::testbench& tb, const core::params&) {
            auto& s = tb.make<de::signal<double>>("s", 0.0);
            tb.context().register_method("bump", [&tb, &s] {
                s.write(s.read() + 1.0);
                tb.context().next_trigger(5_us);
            });
            tb.probe("s", s);
            tb.set_sample_period(5_us);
            tb.set_stop_time(20_us);
        });
}

std::string snap_path(const std::string& name) { return "snapshot_" + name + ".bin"; }

/// The acceptance harness: uninterrupted run to T+D vs snapshot-at-T /
/// restore-in-fresh-context / run-to-T+D.  The resumed trace covers (T, T+D];
/// every sample (and its timestamp, and the end measurements) must be
/// bit-equal to the uninterrupted run's tail.  `at_snap` runs at T on the
/// bench just run there, before the snapshot.
void expect_resume_bit_identical(const std::string& scenario_name,
                                 const std::string& probe_name,
                                 const std::string& measurement_name,
                                 const de::time& t_snap, const de::time& t_extra,
                                 const std::function<void()>& at_snap = [] {}) {
    auto sc = core::scenario::find(scenario_name);
    const std::string file = snap_path(scenario_name);

    auto ref = sc.build();
    ref->run(t_snap);
    at_snap();
    ref->run(t_extra);

    auto original = sc.build();
    original->run(t_snap);
    at_snap();
    original->snapshot(file);
    original.reset();  // fresh-process stand-in: the source bench is gone

    auto resumed = core::scenario::resume(file);
    resumed->run(t_extra);

    const auto full = ref->waveform(probe_name);
    const auto& full_t = ref->times();
    const auto tail = resumed->waveform(probe_name);
    const auto& tail_t = resumed->times();
    ASSERT_FALSE(tail.empty()) << scenario_name;
    ASSERT_GE(full.size(), tail.size()) << scenario_name;
    const std::size_t off = full.size() - tail.size();
    for (std::size_t i = 0; i < tail.size(); ++i) {
        ASSERT_EQ(full_t[off + i], tail_t[i])
            << scenario_name << " sample-time " << i;
        ASSERT_EQ(full[off + i], tail[i]) << scenario_name << " sample " << i;
    }
    EXPECT_EQ(ref->measurement(measurement_name), resumed->measurement(measurement_name))
        << scenario_name;
    std::remove(file.c_str());
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/// A snapshot file of the tiny scenario, as raw bytes.
std::vector<std::uint8_t> tiny_snapshot_bytes() {
    define_tiny();
    auto tb = core::scenario::find("snap_tiny").build();
    tb->run(20_us);
    const std::string file = snap_path("tiny");
    tb->snapshot(file);
    auto bytes = read_file(file);
    std::remove(file.c_str());
    return bytes;
}

std::string error_of(const std::string& path) {
    try {
        (void)core::scenario::resume(path);
    } catch (const sca::util::error& e) {
        return e.what();
    }
    return {};
}

}  // namespace

// ------------------------------------------------------- replay families --

TEST(snapshot, static_tdf_resumes_bit_identically) {
    define_static_tdf();
    expect_resume_bit_identical("snap_static_tdf", "y", "y_final", 500_us, 300_us);
}

TEST(snapshot, sliced_reference_equals_single_shot) {
    // The harness compares against a run sliced at T; this pins the premise
    // that slicing itself is bit-transparent, so the comparison isolates the
    // snapshot/restore boundary.
    define_static_tdf();
    auto sc = core::scenario::find("snap_static_tdf");
    auto sliced = sc.build();
    sliced->run(500_us);
    sliced->run(300_us);
    auto oneshot = sc.build();
    oneshot->run(800_us);
    const auto a = sliced->waveform("y");
    const auto b = oneshot->waveform("y");
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(snapshot, block_tdf_multirate_pipeline) {
    define_block_tdf();
    expect_resume_bit_identical("snap_block_tdf", "y", "y_final", 1200_us, 600_us);
}

TEST(snapshot, eln_switching_network) {
    define_eln_switching();
    expect_resume_bit_identical("snap_eln_switch", "vout", "vout_final", 500_us, 300_us);
}

TEST(snapshot, lsf_integrator) {
    define_lsf();
    expect_resume_bit_identical("snap_lsf", "y", "y_final", 500_us, 300_us);
}

TEST(snapshot, dynamic_tdf_retiming) {
    define_dynamic_tdf();
    expect_resume_bit_identical("snap_dynamic_tdf", "y", "y_final", 1_ms, 500_us);
}

TEST(snapshot, nonlinear_dae_rectifier) {
    define_nonlinear();
    expect_resume_bit_identical("snap_nonlinear", "vout", "vout_final", 1_ms, 600_us);
}

TEST(snapshot, nonlinear_restart_pending_at_the_cut) {
    // Saved between resistor::set_value and the step that restarts the
    // Newton solver across the jump.
    define_diode_step();
    expect_resume_bit_identical("snap_diode_step", "v", "v_final", 10_us, 10_us,
                                [] { g_step_resistor->set_value(100.0); });
}

TEST(snapshot, value_set_at_run_time_survives_a_restamp) {
    // resistor::set_value at 10 us, snapshot at 20 us, then a restamp, which
    // stamps the resistor's own value again: the resumed bench must hold
    // the value set at run time, not the one it was built with.
    define_rc_value();
    auto sc = core::scenario::find("snap_rc_value");
    const std::string file = snap_path("snap_rc_value");

    auto ref = sc.build();
    ref->run(10_us);
    g_rc_resistor->set_value(100.0);
    ref->run(10_us);
    g_rc_network->request_restamp();
    ref->run(30_us);

    auto original = sc.build();
    original->run(10_us);
    g_rc_resistor->set_value(100.0);
    original->run(10_us);
    original->snapshot(file);
    original.reset();
    auto resumed = core::scenario::resume(file);
    std::remove(file.c_str());
    EXPECT_EQ(g_rc_resistor->value(), 100.0);
    g_rc_network->request_restamp();
    resumed->run(30_us);

    const auto full = ref->waveform("v");
    const auto tail = resumed->waveform("v");
    ASSERT_EQ(tail.size(), 30U);
    ASSERT_EQ(full.size(), 51U);
    for (std::size_t i = 0; i < tail.size(); ++i) {
        ASSERT_EQ(full[full.size() - tail.size() + i], tail[i]) << i;
    }
    EXPECT_EQ(ref->measurement("v_final"), resumed->measurement("v_final"));
    EXPECT_NEAR(resumed->measurement("v_final"), 0.1, 1e-8);
}

TEST(snapshot, pending_process_wakes_resume_bit_identically) {
    // The waiter wakes at 2, 7, 9, 14, 16, ... 30, 35 us.  Cut while the
    // kicker's own timed wake is pending (and the recorder's), at instants
    // where the waiter's next wake is its timeout (12 us, 30 us) and where
    // it is the kick (8 us, 35 us).
    define_wakes();
    for (const de::time t_snap : {8_us, 12_us, 30_us, 35_us}) {
        expect_resume_bit_identical("snap_wakes", "s", "s_final", t_snap, 60_us);
    }
}

TEST(snapshot, snapshot_at_different_cut_points_all_replay) {
    // The cut must be immaterial: any settled T yields the same T+D tail.
    define_static_tdf();
    for (const de::time t_snap : {100_us, 370_us, 990_us}) {
        expect_resume_bit_identical("snap_static_tdf", "y", "y_final", t_snap, 200_us);
    }
}

// ---------------------------------------------------------- preconditions --

TEST(snapshot, never_run_bench_is_refused) {
    define_static_tdf();
    auto tb = core::scenario::find("snap_static_tdf").build();
    try {
        (void)core::encode_snapshot(*tb);
        FAIL() << "snapshot of a never-run bench must throw";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("snapshot requires"), std::string::npos)
            << e.what();
    }
}

TEST(snapshot, unregistered_scenario_bench_is_refused) {
    core::testbench tb("not_a_registered_scenario");
    auto& s = tb.make<de::signal<double>>("s", 0.0);
    (void)s;
    tb.run(10_us);
    try {
        (void)core::encode_snapshot(tb);
        FAIL() << "snapshot of a scenario-less bench must throw";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("registered scenario"), std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------------- robustness --

TEST(snapshot_robustness, truncation_at_every_byte_is_detected) {
    const auto bytes = tiny_snapshot_bytes();
    ASSERT_GT(bytes.size(), 13U);
    const std::string file = snap_path("truncated");
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        write_file(file, {bytes.begin(), bytes.begin() + static_cast<long>(cut)});
        EXPECT_THROW((void)core::scenario::resume(file), sca::util::error)
            << "cut at byte " << cut << " of " << bytes.size();
    }
    std::remove(file.c_str());
}

TEST(snapshot_robustness, bad_magic_is_refused) {
    auto bytes = tiny_snapshot_bytes();
    bytes[0] ^= 0xFF;
    const std::string file = snap_path("badmagic");
    write_file(file, bytes);
    EXPECT_NE(error_of(file).find("bad frame magic"), std::string::npos);
    std::remove(file.c_str());
}

TEST(snapshot_robustness, corrupt_payload_fails_the_checksum) {
    auto bytes = tiny_snapshot_bytes();
    bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
    const std::string file = snap_path("badsum");
    write_file(file, bytes);
    EXPECT_NE(error_of(file).find("checksum"), std::string::npos);
    std::remove(file.c_str());
}

TEST(snapshot_robustness, unsupported_version_is_refused) {
    const auto bytes = tiny_snapshot_bytes();
    // Re-frame the payload as the previous format version wrote it.
    std::size_t offset = 0;
    wire::frame f;
    ASSERT_TRUE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
    f.payload[0] = wire::k_format_version - 1;  // little-endian u32 version
    const std::string file = snap_path("badversion");
    write_file(file, wire::pack_frame(wire::msg_type::snapshot_state, f.payload));
    EXPECT_NE(error_of(file).find("unsupported snapshot version " +
                                  std::to_string(wire::k_format_version - 1)),
              std::string::npos);
    std::remove(file.c_str());
}

TEST(snapshot_robustness, wrong_frame_type_is_refused) {
    const auto bytes = tiny_snapshot_bytes();
    std::size_t offset = 0;
    wire::frame f;
    ASSERT_TRUE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
    const std::string file = snap_path("wrongtype");
    write_file(file, wire::pack_frame(wire::msg_type::result, f.payload));
    EXPECT_NE(error_of(file).find("not a snapshot file"), std::string::npos);
    std::remove(file.c_str());
}

TEST(snapshot_robustness, trailing_bytes_are_refused) {
    auto bytes = tiny_snapshot_bytes();
    bytes.push_back(0x00);
    const std::string file = snap_path("trailing");
    write_file(file, bytes);
    EXPECT_NE(error_of(file).find("trailing bytes"), std::string::npos);
    std::remove(file.c_str());
}

TEST(snapshot_robustness, hostile_process_key_count_is_refused) {
    // A process record's u64 event-key count must fit in the bytes left
    // before the decoder reserves it.  The record follows the process
    // count: str(name), dynamic_waiting, activations, n_keys.
    define_tiny();
    sca::util::byte_writer head;
    {
        const auto tb = core::scenario::find("snap_tiny").build();
        tb->run(20_us);  // as tiny_snapshot_bytes: the recorder is registered too
        const auto& procs = tb->context().sched().processes();
        ASSERT_FALSE(procs.empty());
        head.u64(procs.size());
        head.str(procs.front()->name());
    }
    const auto bytes = tiny_snapshot_bytes();
    std::size_t offset = 0;
    wire::frame f;
    ASSERT_TRUE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
    const auto& needle = head.bytes();
    const auto at = std::search(f.payload.begin(), f.payload.end(), needle.begin(), needle.end());
    ASSERT_NE(at, f.payload.end());
    ASSERT_EQ(std::search(at + 1, f.payload.end(), needle.begin(), needle.end()),
              f.payload.end());
    const auto record = static_cast<std::size_t>(at - f.payload.begin()) + needle.size();
    const std::size_t n_keys = record + 1 + 8;
    ASSERT_LE(n_keys + 8, f.payload.size());
    for (int i = 0; i < 8; ++i) f.payload[n_keys + i] = i == 5 ? 0x01 : 0x00;  // 2^40

    const std::string file = snap_path("hostilekeys");
    write_file(file, wire::pack_frame(wire::msg_type::snapshot_state, f.payload));
    EXPECT_NE(error_of(file).find("element count 1099511627776"), std::string::npos);
    std::remove(file.c_str());
}

TEST(snapshot_robustness, hostile_solver_pattern_counts_are_refused) {
    // nonlinear_dae_solver::restore_state rebuilds its Jacobian patterns
    // from u64 row and entry counts; a count the bytes left cannot hold is
    // refused before anything is allocated.
    namespace solver = sca::solver;
    solver::equation_system sys;
    (void)sys.add_unknown("x");
    sys.add_b(0, 0, 1.0);
    for (const bool hostile_rows : {true, false}) {
        sca::util::byte_writer w;
        w.f64(0.0);     // t
        w.f64(1e-6);    // h
        w.f64(1e-6);    // h_init
        w.f64(1e-6);    // h_max
        w.f64(1e-6);    // h_prev
        w.boolean(false);  // predictor history
        w.boolean(false);  // pending restart
        w.f64_vec({0.0});  // x
        w.f64_vec({0.0});  // x_prev
        for (int i = 0; i < 5; ++i) w.u64(0);  // step and factorization counters
        w.boolean(true);   // matrices follow
        w.u64(0);          // stamp generation
        if (hostile_rows) {
            w.u64(1ULL << 40);
        } else {
            w.u64(1);
            w.u64(1ULL << 40);
        }
        w.u64(0);
        solver::nonlinear_dae_solver s(sys, solver::nonlinear_options{});
        sca::util::byte_reader r(w.bytes());
        try {
            s.restore_state(r);
            ADD_FAILURE() << "hostile count accepted (rows: " << hostile_rows << ")";
        } catch (const sca::util::error& e) {
            EXPECT_NE(std::string(e.what()).find("element count 1099511627776"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(snapshot_robustness, structural_fingerprint_mismatch_is_refused) {
    define_tiny();
    auto tb = core::scenario::find("snap_tiny").build();
    tb->run(20_us);
    const std::string file = snap_path("fpmismatch");
    tb->snapshot(file);
    tb.reset();
    // Redefine the scenario with a different shape: same name, extra signal.
    core::scenario::define(
        "snap_tiny", core::params{},
        [](core::testbench& b, const core::params&) {
            auto& s = b.make<de::signal<double>>("s", 0.0);
            auto& extra = b.make<de::signal<double>>("extra", 1.0);
            (void)extra;
            b.context().register_method("bump", [&b, &s] {
                s.write(s.read() + 1.0);
                b.context().next_trigger(5_us);
            });
            b.probe("s", s);
            b.set_sample_period(5_us);
            b.set_stop_time(20_us);
        });
    EXPECT_NE(error_of(file).find("structural fingerprint mismatch"), std::string::npos);
    define_tiny();  // restore the canonical definition for other tests
    std::remove(file.c_str());
}

TEST(snapshot_robustness, ring_smaller_than_schedule_is_refused) {
    // Rings come back at their saved capacity: one saved under batch cap 1
    // holds a single period, too small for the 64-period passes of a model
    // rebuilt at cap 64, which would misplace every resumed token.
    define_batch_cap();
    const std::string file = snap_path("batchcap");
    g_batch_cap = 1;
    {
        auto tb = core::scenario::find("snap_batch_cap").build();
        tb->run(300_us);
        tb->snapshot(file);
    }
    g_batch_cap = 64;
    const std::string err = error_of(file);
    EXPECT_NE(err.find("smaller than"), std::string::npos) << err;
    EXPECT_NE(err.find("'w1'"), std::string::npos) << err;

    // A ring larger than the schedule needs is fine: saved at 64, resumed at
    // 1, the tail replays the uninterrupted run bit-identically.
    auto ref = core::scenario::find("snap_batch_cap").build();
    ref->run(300_us);
    ref->run(200_us);
    {
        auto tb = core::scenario::find("snap_batch_cap").build();
        tb->run(300_us);
        tb->snapshot(file);
    }
    g_batch_cap = 1;
    auto resumed = core::scenario::resume(file);
    resumed->run(200_us);
    const auto full = ref->waveform("y");
    const auto tail = resumed->waveform("y");
    ASSERT_FALSE(tail.empty());
    ASSERT_GE(full.size(), tail.size());
    const std::size_t off = full.size() - tail.size();
    for (std::size_t i = 0; i < tail.size(); ++i) ASSERT_EQ(full[off + i], tail[i]) << i;
    g_batch_cap = tdf::cluster::k_default_max_batch_periods;
    std::remove(file.c_str());
}
