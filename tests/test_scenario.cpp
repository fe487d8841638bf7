// Scenario front end and parallel multi-run engine: params semantics,
// testbench lifecycle/ownership, grids and Monte Carlo sampling, the
// worker-pool engine — and the core concurrency-correctness contract that
// sequential and parallel execution of the same run_set are bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <sstream>

#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "solver/ac.hpp"
#include "solver/dc.hpp"
#include "solver/noise.hpp"
#include "util/measure.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace solver = sca::solver;
using namespace sca::de::literals;

namespace {

/// The reference scenario of the suite: series-R, shunt-C lowpass driven by
/// a sine, with voltage probe and waveform measurements.
core::scenario define_rc_scenario(const std::string& name = "rc_test") {
    return core::scenario::define(
        name, core::params{{"r", 1e3}, {"c", 100e-9}, {"f", 1e3}},
        [](core::testbench& tb, const core::params& p) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(2.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            auto& vs = tb.make<eln::vsource>(
                "vs", net, vin, gnd,
                eln::waveform::sine(1.0, p.get("f", 1e3)));
            vs.set_ac(1.0);
            tb.make<eln::resistor>("r", net, vin, vout, p.get("r", 1e3));
            tb.make<eln::capacitor>("c", net, vout, gnd, p.get("c", 100e-9));

            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_rms", [&tb] { return sca::util::rms(tb.waveform("vout")); });
            tb.set_stop_time(de::time::from_seconds(4e-3));
            tb.set_sample_period(10_us);
        });
}

}  // namespace

// ------------------------------------------------------------------ params --

TEST(params, defaults_overrides_and_merge) {
    core::params defaults{{"r", 1e3}, {"mode", "fast"}};
    core::params overrides;
    overrides.set("r", 2e3);
    const core::params merged = overrides.merged_onto(defaults);
    EXPECT_DOUBLE_EQ(merged.get("r", 0.0), 2e3);
    EXPECT_EQ(merged.get("mode", std::string("?")), "fast");
    EXPECT_DOUBLE_EQ(merged.get("absent", 42.0), 42.0);
    EXPECT_THROW((void)merged.number("absent"), sca::util::error);
    EXPECT_THROW((void)merged.text("r"), sca::util::error);
}

TEST(params, run_identity_survives_merge) {
    core::params p;
    p.set_run_identity(7, 1234);
    const core::params merged = p.merged_onto(core::params{{"x", 1.0}});
    EXPECT_EQ(merged.run_index(), 7U);
    EXPECT_EQ(merged.seed(), 1234U);
}

// -------------------------------------------------------------- param_grid --

TEST(param_grid, cartesian_product_with_fixed_order) {
    core::param_grid grid;
    grid.add("a", {1.0, 2.0}).add("b", {10.0, 20.0, 30.0});
    ASSERT_EQ(grid.size(), 6U);
    // Last axis varies fastest.
    EXPECT_DOUBLE_EQ(grid.at(0).number("a"), 1.0);
    EXPECT_DOUBLE_EQ(grid.at(0).number("b"), 10.0);
    EXPECT_DOUBLE_EQ(grid.at(1).number("b"), 20.0);
    EXPECT_DOUBLE_EQ(grid.at(3).number("a"), 2.0);
    EXPECT_DOUBLE_EQ(grid.at(3).number("b"), 10.0);
    EXPECT_DOUBLE_EQ(grid.at(5).number("b"), 30.0);
}

TEST(param_grid, linspace_and_logspace) {
    core::param_grid grid;
    grid.add_linspace("x", 0.0, 1.0, 5).add_logspace("y", 1.0, 100.0, 3);
    EXPECT_EQ(grid.size(), 15U);
    EXPECT_DOUBLE_EQ(grid.at(0).number("x"), 0.0);
    EXPECT_NEAR(grid.at(1).number("y"), 10.0, 1e-9);
    EXPECT_NEAR(grid.at(2).number("y"), 100.0, 1e-9);
}

TEST(monte_carlo, deterministic_from_seed) {
    core::monte_carlo mc(4);
    mc.uniform("r", 500.0, 1500.0).normal("c", 100e-9, 5e-9);
    const auto a = mc.at(2, 999);
    const auto b = mc.at(2, 999);
    EXPECT_DOUBLE_EQ(a.number("r"), b.number("r"));
    EXPECT_DOUBLE_EQ(a.number("c"), b.number("c"));
    const auto c = mc.at(2, 1000);
    EXPECT_NE(a.number("r"), c.number("r"));
    EXPECT_GE(a.number("r"), 500.0);
    EXPECT_LE(a.number("r"), 1500.0);
}

// ---------------------------------------------------------------- scenario --

TEST(scenario, define_find_and_single_run) {
    auto rc = define_rc_scenario("rc_single");
    EXPECT_EQ(rc.name(), "rc_single");
    auto found = core::scenario::find("rc_single");
    EXPECT_EQ(found.name(), "rc_single");
    EXPECT_THROW((void)core::scenario::find("does_not_exist"), sca::util::error);

    auto tb = found.build();
    tb->run();
    // Steady-state sine through an RC lowpass at fc ~ 1.6 kHz: attenuated,
    // nonzero response; rms of the full record is positive and below input.
    const double rms = tb->measurement("vout_rms");
    EXPECT_GT(rms, 0.1);
    EXPECT_LT(rms, 1.0);
    EXPECT_EQ(tb->waveform("vout").size(), tb->times().size());
}

TEST(scenario, overrides_change_the_built_model) {
    auto rc = define_rc_scenario("rc_override");
    auto tb_small = rc.build({{"c", 10e-9}});
    auto tb_large = rc.build({{"c", 1000e-9}});
    tb_small->run();
    tb_large->run();
    // Bigger C, lower cutoff, more attenuation at the same drive frequency.
    EXPECT_GT(tb_small->measurement("vout_rms"), tb_large->measurement("vout_rms"));
}

TEST(scenario, testbench_owns_objects_and_tears_down) {
    auto rc = define_rc_scenario("rc_teardown");
    for (int i = 0; i < 3; ++i) {
        auto tb = rc.build();
        tb->run();
        // tb (context + components) destroyed here; leak checking in CI
        // verifies nothing is left behind.
    }
    SUCCEED();
}

TEST(scenario, names_enumerates_the_registry_sorted) {
    define_rc_scenario("rc_enum_b");
    define_rc_scenario("rc_enum_a");
    const std::vector<std::string> names = core::scenario::names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    // Enumeration is the streaming server's service catalog: every defined
    // scenario must appear, and each name must resolve back through find().
    for (const std::string& expect : {std::string("rc_enum_a"), std::string("rc_enum_b")}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end());
        EXPECT_EQ(core::scenario::find(expect).name(), expect);
    }
}

TEST(scenario, param_hooks_poke_between_runs) {
    double gain = 1.0;
    core::testbench tb("hooks");
    tb.on_param("gain", [&gain](double v) { gain = v; });
    EXPECT_TRUE(tb.has_param_hook("gain"));
    EXPECT_FALSE(tb.has_param_hook("offset"));
    EXPECT_EQ(tb.param_names(), std::vector<std::string>{"gain"});
    tb.poke("gain", 2.5);
    EXPECT_DOUBLE_EQ(gain, 2.5);
    // Unknown names throw — a live client poking a typo gets an error frame,
    // not a silent no-op.
    EXPECT_THROW(tb.poke("offset", 0.0), sca::util::error);
}

// ----------------------------------------------- analyses on one testbench --

TEST(scenario, all_four_analyses_on_one_testbench) {
    const double r = 1e3, c = 100e-9;
    const double fc = 1.0 / (2.0 * std::numbers::pi * r * c);

    core::testbench tb("analyses");
    auto& net = tb.make<eln::network>("net");
    net.set_timestep(2.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    auto& vs = tb.make<eln::vsource>("vs", net, vin, gnd,
                                     eln::waveform::sine(1.0, 1e3));
    vs.set_ac(1.0);
    tb.make<eln::resistor>("r", net, vin, vout, r);
    tb.make<eln::capacitor>("c", net, vout, gnd, c);
    tb.probe("vout", [&net, vout] { return net.voltage(vout); });
    tb.measure("vout_rms", [&tb] { return sca::util::rms(tb.waveform("vout")); });
    tb.set_stop_time(de::time::from_seconds(4e-3));
    tb.set_sample_period(10_us);

    // DC: zero-input quiescent point, one handle, no model rebuild.
    const auto& sys = tb.view().equations();
    const auto op = solver::dc_solve(sys, 0.0);
    EXPECT_FALSE(op.empty());

    // AC: -3 dB at the cutoff.
    const auto pts =
        solver::ac_sweep(sys, vout.index(), {fc, fc, 1, solver::sweep::scale::logarithmic});
    ASSERT_EQ(pts.size(), 1U);
    EXPECT_NEAR(pts[0].magnitude_db(), -3.0103, 0.01);

    // Noise: resistor thermal noise appears at the output.
    const auto nres = solver::noise_sweep(sys, vout.index(), {fc, fc, 1});
    EXPECT_GT(nres.points[0].total_psd, 0.0);

    // Transient on the very same testbench afterwards.
    tb.run();
    EXPECT_GT(tb.measurement("vout_rms"), 0.0);
}

// ------------------------------------------- engine: determinism contracts --

TEST(run_set, sequential_and_parallel_runs_are_bit_identical) {
    auto rc = define_rc_scenario("rc_parallel");
    auto make_set = [&] {
        return core::run_set(rc)
            .with_grid(core::param_grid()
                           .add_logspace("r", 200.0, 5e3, 4)
                           .add("c", {47e-9, 220e-9}))
            .set_base_seed(42);
    };
    const auto seq = make_set().set_workers(1).run_all();
    const auto par = make_set().set_workers(4).run_all();

    ASSERT_EQ(seq.size(), 8U);
    ASSERT_EQ(par.size(), 8U);
    EXPECT_EQ(seq.failed_count(), 0U);
    EXPECT_EQ(par.failed_count(), 0U);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        const auto& a = seq[i];
        const auto& b = par[i];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.parameters.entries(), b.parameters.entries());
        // Bit-identical: exact double equality on every sample and scalar.
        EXPECT_TRUE(a.times == b.times) << "time axis differs in run " << i;
        ASSERT_EQ(a.waveforms.size(), b.waveforms.size());
        for (std::size_t w = 0; w < a.waveforms.size(); ++w) {
            EXPECT_TRUE(a.waveforms[w] == b.waveforms[w])
                << "waveform '" << a.probe_names[w] << "' differs in run " << i;
        }
        EXPECT_TRUE(a.measurements == b.measurements)
            << "measurements differ in run " << i;
    }
}

TEST(run_set, monte_carlo_results_independent_of_worker_count) {
    auto rc = define_rc_scenario("rc_mc");
    auto make_set = [&] {
        return core::run_set(rc)
            .with_samples(core::monte_carlo(6).uniform("r", 300.0, 3e3))
            .set_base_seed(7)
            .keep_waveforms(false);
    };
    const auto seq = make_set().set_workers(1).run_all();
    const auto par = make_set().set_workers(4).run_all();
    ASSERT_EQ(seq.size(), 6U);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i].measurements == par[i].measurements);
        EXPECT_DOUBLE_EQ(seq[i].parameters.number("r"), par[i].parameters.number("r"));
        EXPECT_TRUE(seq[i].waveforms.empty());
    }
}

TEST(run_set, per_run_seeds_are_distinct_and_deterministic) {
    const std::uint64_t s0 = core::detail::derive_seed(42, 0);
    const std::uint64_t s1 = core::detail::derive_seed(42, 1);
    EXPECT_NE(s0, s1);
    EXPECT_EQ(s0, core::detail::derive_seed(42, 0));
    EXPECT_NE(s0, core::detail::derive_seed(43, 0));
}

TEST(run_set, a_failing_run_does_not_poison_the_others) {
    auto bad = core::scenario::define(
        "sometimes_fails", [](core::testbench& tb, const core::params& p) {
            if (p.get("blow_up", 0.0) > 0.5) {
                sca::util::report_fatal("sometimes_fails", "requested, deliberate failure");
            }
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(10.0, de::time_unit::us);
            auto gnd = net.ground();
            auto n = net.create_node("n");
            tb.make<eln::isource>("is", net, gnd, n, eln::waveform::dc(1e-3));
            tb.make<eln::resistor>("r", net, n, gnd, 1e3);
            tb.measure("v", [&net, n] { return net.voltage(n); });
            tb.set_stop_time(1_ms);
        });
    const auto table = core::run_set(bad)
                           .with_grid(core::param_grid().add("blow_up", {0.0, 1.0, 0.0}))
                           .set_workers(2)
                           .run_all();
    ASSERT_EQ(table.size(), 3U);
    EXPECT_EQ(table.failed_count(), 1U);
    EXPECT_TRUE(table[0].ok);
    EXPECT_FALSE(table[1].ok);
    EXPECT_NE(table[1].error.find("requested, deliberate failure"), std::string::npos);
    EXPECT_TRUE(table[2].ok);
    EXPECT_NEAR(table[0].measurement("v"), 1.0, 1e-9);

    // The comma-bearing error must come out CSV-quoted, keeping every row at
    // the same field count.
    std::ostringstream csv;
    table.write_csv(csv);
    EXPECT_NE(csv.str().find("\"sometimes_fails: requested, deliberate failure\""),
              std::string::npos);
    std::istringstream rows(csv.str());
    std::string row;
    std::getline(rows, row);
    const auto header_fields = std::count(row.begin(), row.end(), ',');
    while (std::getline(rows, row)) {
        long fields = 0;
        bool quoted = false;
        for (char c : row) {
            if (c == '"') quoted = !quoted;
            if (c == ',' && !quoted) ++fields;
        }
        EXPECT_EQ(fields, header_fields);
    }
}

TEST(result_table, columns_best_and_csv) {
    auto rc = define_rc_scenario("rc_table");
    const auto table = core::run_set(rc)
                           .with_grid(core::param_grid().add("c", {10e-9, 1000e-9}))
                           .set_workers(1)
                           .keep_waveforms(false)
                           .run_all();
    const auto rms_col = table.column("vout_rms");
    ASSERT_EQ(rms_col.size(), 2U);
    const auto* best = table.best("vout_rms", /*maximize=*/true);
    ASSERT_NE(best, nullptr);
    EXPECT_DOUBLE_EQ(best->measurement("vout_rms"), std::max(rms_col[0], rms_col[1]));
    // Small C keeps more signal: run 0 wins.
    EXPECT_EQ(best->index, 0U);

    std::ostringstream csv;
    table.write_csv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("run,seed"), std::string::npos);
    EXPECT_NE(text.find("vout_rms"), std::string::npos);
    // Header + one row per run.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}
