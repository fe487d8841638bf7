// Dynamic TDF: runtime attribute changes with incremental rescheduling.
//
// Covers the contract of tdf/dynamic.hpp + the cluster reschedule path:
// static clusters stay on the compiled fast path bit-identically, timestep
// and rate requests retime/rebalance the cluster between periods, repeat
// visits to a configuration hit the schedule cache instead of recompiling,
// non-accepting neighbors reject requests with their full hierarchical path,
// rate-oscillating clusters stay deterministic under the parallel run_set
// engine, and a coupled dae_module absorbs timestep changes through the
// numeric-only refactor path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "kernel/context.hpp"
#include "tdf/block.hpp"
#include "tdf/cluster.hpp"
#include "tdf/connect.hpp"
#include "tdf/dynamic.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace core = sca::core;
using namespace sca::de::literals;

namespace {

struct ramp_source : tdf::module {
    tdf::out<double> out;
    double next_value = 0.0;
    bool accept = true;

    explicit ramp_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
    [[nodiscard]] bool accept_attribute_changes() const override { return accept; }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) out.write(next_value++, k);
    }
};

struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;
    std::vector<de::time> sample_times;
    bool accept = true;

    explicit collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    [[nodiscard]] bool accept_attribute_changes() const override { return accept; }
    void processing() override {
        for (unsigned j = 0; j < in.rate(); ++j) {
            samples.push_back(in.read(j));
            sample_times.push_back(tdf_time());
        }
    }
};

/// Pass-through that retimes itself: after `cycles_before_change` periods it
/// requests `slow_factor` times its base timestep; with `toggle` set it flips
/// between the two timesteps every period.
struct retimer : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    de::time base_step;
    std::int64_t slow_factor;
    std::uint64_t cycles_before_change;
    bool toggle = false;
    bool slow = false;

    retimer(const de::module_name& nm, const de::time& step, std::int64_t factor,
            std::uint64_t after_cycles)
        : tdf::module(nm), in("in"), out("out"), base_step(step), slow_factor(factor),
          cycles_before_change(after_cycles) {}

    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override { set_timestep(base_step); }
    void processing() override { out.write(in.read()); }
    void change_attributes() override {
        const std::uint64_t cycles = owning_cluster()->cycle_count();
        if (toggle) {
            slow = !slow;
        } else if (cycles >= cycles_before_change) {
            slow = true;
        }
        request_timestep(slow ? base_step * slow_factor : base_step);
    }
};

/// Decimator that oscillates its input rate between `fast_rate` and 1 every
/// `flip_every` periods (exercises repetition-vector rebalancing + cache).
struct rate_hopper : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    unsigned fast_rate;
    std::uint64_t flip_every;
    bool fast = true;

    rate_hopper(const de::module_name& nm, unsigned rate, std::uint64_t flip)
        : tdf::module(nm), in("in"), out("out"), fast_rate(rate), flip_every(flip) {
        in.set_rate(rate);
    }

    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override { set_timestep(8.0, de::time_unit::us); }
    void processing() override {
        double acc = 0.0;
        for (unsigned k = 0; k < in.rate(); ++k) acc += in.read(k);
        out.write(acc / static_cast<double>(in.rate()));
    }
    void change_attributes() override {
        if (owning_cluster()->cycle_count() % flip_every == 0) fast = !fast;
        request_rate(in, fast ? fast_rate : 1);
    }
};

const tdf::cluster& only_cluster(de::simulation_context& ctx) {
    auto& reg = tdf::registry::of(ctx);
    EXPECT_EQ(reg.clusters().size(), 1U);
    return *reg.clusters()[0];
}

}  // namespace

// ------------------------------------------------- static fast path intact

TEST(dynamic_tdf, static_cluster_is_not_dynamic_and_never_reschedules) {
    de::simulation_context ctx;
    ramp_source src("src");
    src.set_timestep(1.0, de::time_unit::us);
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.bind(s);
    sink.in.bind(s);

    ctx.run(10_us);
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_FALSE(c.is_dynamic());
    EXPECT_EQ(c.reschedule_count(), 0U);
    EXPECT_EQ(c.recompile_count(), 0U);
    EXPECT_EQ(c.schedule_cache_size(), 0U);
}

TEST(dynamic_tdf, static_waveform_bit_identical_with_dynamic_subsystem_compiled_in) {
    // PR-4 baseline: a 2:3 multirate ramp pipeline is fully deterministic —
    // the collector sees the ramp 0, 1, 2, ... exactly, batched or not.
    auto run_pipeline = [](std::uint64_t max_batch) {
        de::simulation_context ctx;
        tdf::registry::of(ctx).set_default_max_batch_periods(max_batch);
        ramp_source src("src");
        src.set_timestep(1.0, de::time_unit::us);
        collector sink("sink");
        tdf::signal<double> s("s");
        src.out.set_rate(2);
        src.out.bind(s);
        sink.in.bind(s);
        sink.in.set_rate(3);
        ctx.run(1_ms);
        return sink.samples;
    };
    const auto per_period = run_pipeline(1);
    const auto batched = run_pipeline(tdf::cluster::k_default_max_batch_periods);
    ASSERT_EQ(per_period.size(), batched.size());
    for (std::size_t i = 0; i < per_period.size(); ++i) {
        ASSERT_EQ(per_period[i], batched[i]) << "sample " << i;  // exact, not near
        ASSERT_EQ(per_period[i], static_cast<double>(i)) << "sample " << i;
    }
}

// ----------------------------------------------------- timestep retiming --

TEST(dynamic_tdf, timestep_request_stretches_the_sampling_grid) {
    de::simulation_context ctx;
    ramp_source src("src");
    retimer slow_down("slow_down", 1_us, 4, 3);  // 4x slower after 3 cycles
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    slow_down.in.bind(s1);
    slow_down.out.bind(s2);
    sink.in.bind(s2);

    ctx.run(20_us);
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_TRUE(c.is_dynamic());
    EXPECT_EQ(c.reschedule_count(), 1U);
    EXPECT_EQ(c.recompile_count(), 1U);

    // Cycles 0..2 sample at 1 us; the request lands after cycle 3 ran (its
    // period still spans 1 us), so t = 0,1,2,3 us then 4 us steps: 7,11,...
    ASSERT_GE(sink.sample_times.size(), 6U);
    EXPECT_EQ(sink.sample_times[0], 0_us);
    EXPECT_EQ(sink.sample_times[1], 1_us);
    EXPECT_EQ(sink.sample_times[2], 2_us);
    EXPECT_EQ(sink.sample_times[3], 3_us);
    EXPECT_EQ(sink.sample_times[4], 7_us);
    EXPECT_EQ(sink.sample_times[5], 11_us);
    // The stream itself stays gapless: every ramp value arrives in order.
    for (std::size_t i = 0; i < sink.samples.size(); ++i) {
        EXPECT_EQ(sink.samples[i], static_cast<double>(i));
    }
}

TEST(dynamic_tdf, request_outside_change_attributes_throws) {
    de::simulation_context ctx;
    ramp_source src("src");
    retimer r("r", 1_us, 2, 1000);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    r.in.bind(s1);
    r.out.bind(s2);
    sink.in.bind(s2);
    ctx.elaborate();
    EXPECT_THROW(r.request_timestep(2_us), sca::util::error);
    EXPECT_THROW(r.request_rate(r.in, 2), sca::util::error);
}

// ------------------------------------------------------- schedule caching --

TEST(dynamic_tdf, repeated_toggle_hits_the_schedule_cache) {
    de::simulation_context ctx;
    ramp_source src("src");
    retimer osc("osc", 1_us, 8, 0);
    osc.toggle = true;  // flip between 1 us and 8 us every period
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    osc.in.bind(s1);
    osc.out.bind(s2);
    sink.in.bind(s2);

    ctx.run(200_us);
    const tdf::cluster& c = only_cluster(ctx);
    // Every period reschedules, but only the first visit to the slow
    // configuration compiles: the fast configuration was seeded at
    // elaboration, so flipping back is a cache hit too.
    EXPECT_GT(c.reschedule_count(), 10U);
    EXPECT_EQ(c.recompile_count(), 1U);
    EXPECT_EQ(c.schedule_cache_size(), 2U);
    EXPECT_EQ(c.schedule_cache_misses(), 1U);
    EXPECT_EQ(c.schedule_cache_hits(), c.reschedule_count() - 1U);
}

TEST(dynamic_tdf, rate_request_rebalances_repetitions) {
    de::simulation_context ctx;
    ramp_source src("src");
    src.accept = true;
    rate_hopper hop("hop", 8, 4);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    hop.in.bind(s1);
    hop.out.bind(s2);
    sink.in.bind(s2);

    ctx.elaborate();
    // Fast configuration: hopper consumes 8 per firing -> src repeats 8x.
    EXPECT_EQ(src.repetitions(), 8U);
    EXPECT_EQ(hop.repetitions(), 1U);

    ctx.run(200_us);
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_TRUE(c.is_dynamic());
    EXPECT_GT(c.reschedule_count(), 2U);
    // Two configurations total; each compiled at most once.
    EXPECT_EQ(c.recompile_count(), 1U);
    EXPECT_EQ(c.schedule_cache_size(), 2U);
    // In the slow configuration the source fires once per period: the
    // repetition vector rebalanced (visible through whichever configuration
    // is installed at run end).
    EXPECT_TRUE(src.repetitions() == 1U || src.repetitions() == 8U);
}

// ------------------------------------------------------------ gating ------

namespace {

/// Composite wrapping a non-accepting sink, so the rejection diagnostic must
/// carry the full hierarchical path ("rx.sink").
struct stubborn_rx : tdf::composite {
    tdf::in<double> x;
    collector* sink = nullptr;
    explicit stubborn_rx(const de::module_name& nm) : tdf::composite(nm), x("x") {
        sink = &make_child<collector>("sink");
        sink->accept = false;
        sink->in.bind(x);
    }
};

}  // namespace

TEST(dynamic_tdf, non_accepting_neighbor_rejects_with_full_path) {
    de::simulation_context ctx;
    ramp_source src("src");
    retimer r("r", 1_us, 2, 1);
    stubborn_rx rx("rx");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    r.in.bind(s1);
    r.out.bind(s2);
    rx.x.bind(s2);

    try {
        ctx.run(100_us);
        FAIL() << "expected the attribute-change rejection to throw";
    } catch (const sca::util::error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rx.sink"), std::string::npos) << msg;
        EXPECT_NE(msg.find("attribute change"), std::string::npos) << msg;
        EXPECT_NE(msg.find("r"), std::string::npos) << msg;
    }
}

TEST(dynamic_tdf, restating_the_current_configuration_is_free) {
    de::simulation_context ctx;
    ramp_source src("src");
    src.accept = false;  // would reject an actual change...
    retimer r("r", 1_us, 2, 1000000);  // ...but only ever restates 1 us
    collector sink("sink");
    sink.accept = false;
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    r.in.bind(s1);
    r.out.bind(s2);
    sink.in.bind(s2);

    ctx.run(50_us);  // no throw: a no-op request does not gate
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_EQ(c.reschedule_count(), 0U);
    EXPECT_EQ(c.recompile_count(), 0U);
}

TEST(dynamic_tdf, unanchored_module_restating_resolved_timestep_is_free) {
    // A module with no timestep anchor of its own (timing derived from the
    // source) that re-requests its *resolved* timestep every period must be
    // a no-op too — even next to neighbors that reject actual changes.
    struct restater : tdf::module {
        tdf::in<double> in;
        tdf::out<double> out;
        explicit restater(const de::module_name& nm)
            : tdf::module(nm), in("in"), out("out") {}
        [[nodiscard]] bool does_attribute_changes() const override { return true; }
        void processing() override { out.write(in.read()); }
        void change_attributes() override { request_timestep(timestep()); }
    };

    de::simulation_context ctx;
    ramp_source src("src");
    src.set_timestep(1.0, de::time_unit::us);  // the only anchor
    src.accept = false;
    restater r("r");
    collector sink("sink");
    sink.accept = false;
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    r.in.bind(s1);
    r.out.bind(s2);
    sink.in.bind(s2);

    ctx.run(50_us);  // no throw, no reschedule
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_EQ(c.reschedule_count(), 0U);
    EXPECT_EQ(c.recompile_count(), 0U);
}

TEST(dynamic_tdf, restatement_does_not_become_an_anchor_during_a_real_change) {
    // An unanchored restater rides along while the anchored retimer makes a
    // real change: the restated (old) timestep must not be promoted to a
    // fresh anchor, or it would conflict with the new period.
    struct restater : tdf::module {
        tdf::in<double> in;
        tdf::out<double> out;
        explicit restater(const de::module_name& nm)
            : tdf::module(nm), in("in"), out("out") {}
        [[nodiscard]] bool does_attribute_changes() const override { return true; }
        void processing() override { out.write(in.read()); }
        void change_attributes() override { request_timestep(timestep()); }
    };

    de::simulation_context ctx;
    ramp_source src("src");
    retimer slow_down("slow_down", 1_us, 4, 2);  // 4x slower after 2 cycles
    restater tail("tail");
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
    src.out.bind(s1);
    slow_down.in.bind(s1);
    slow_down.out.bind(s2);
    tail.in.bind(s2);
    tail.out.bind(s3);
    sink.in.bind(s3);

    ctx.run(40_us);  // would throw "conflicting anchors" if tail anchored
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_EQ(c.reschedule_count(), 1U);
    EXPECT_EQ(tail.timestep(), de::time(4.0, de::time_unit::us));
}

TEST(dynamic_tdf, schedule_cache_is_bounded) {
    tdf::schedule_cache cache;
    constexpr std::size_t k_max = tdf::schedule_cache::k_max_entries;
    for (std::uint64_t i = 0; i < k_max + 1; ++i) {
        tdf::attribute_signature sig;
        sig.words = {i};
        cache.insert(sig, tdf::cluster_config{});
        EXPECT_LE(cache.size(), k_max);
        EXPECT_NE(cache.find(sig), nullptr);  // newest entry always present
    }
    EXPECT_EQ(cache.size(), k_max);
}

// ------------------------------------- parallel run_set determinism -------

TEST(dynamic_tdf, rate_oscillating_cluster_parallel_matches_sequential) {
    auto sc = core::scenario::define(
        "dynamic_rate_osc", core::params{{"gain", 1.0}},
        [](core::testbench& tb, const core::params& p) {
            auto& src = tb.make<ramp_source>("src");
            src.next_value = p.number("gain");
            auto& hop = tb.make<rate_hopper>("hop", 8, 3);
            auto& sink = tb.make<collector>("sink");
            auto& s_out = connect(hop.out, sink.in);
            connect(src.out, hop.in);
            tb.probe("decimated", s_out);
            tb.set_sample_period(8_us);
            tb.set_stop_time(2_ms);
        });

    auto grid = core::param_grid().add("gain", {1.0, 2.0, 3.0, 4.0});
    auto sequential = core::run_set(sc).with_grid(grid).set_workers(1).run_all();
    auto parallel = core::run_set(sc).with_grid(grid).set_workers(4).run_all();
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        ASSERT_TRUE(sequential[i].ok) << sequential[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        const auto& a = sequential[i].waveform("decimated");
        const auto& b = parallel[i].waveform("decimated");
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
            ASSERT_EQ(a[j], b[j]) << "run " << i << " sample " << j;
        }
    }
}

// --------------------------------------- coupled dae_module (ELN view) ----

TEST(dynamic_tdf, dae_timestep_change_reuses_symbolic_factorization) {
    de::simulation_context ctx;
    // TDF drive -> RC network -> TDF probe, with a dynamic retimer feeding
    // the drive so the whole cluster (network included) retimes at runtime.
    ramp_source src("src");
    retimer r("r", 10_us, 4, 5);
    eln::network net("net");
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    eln::tdf_vsource drive("drive", net, vin, gnd);
    eln::resistor res("res", net, vin, vout, 1e3);
    eln::capacitor cap("cap", net, vout, gnd, 100e-9);
    eln::tdf_vsink probe("probe", net, vout, gnd);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
    src.out.bind(s1);
    r.in.bind(s1);
    r.out.bind(s2);
    drive.inp.bind(s2);
    probe.outp.bind(s3);
    sink.in.bind(s3);

    ctx.run(500_us);
    const tdf::cluster& c = only_cluster(ctx);
    EXPECT_EQ(c.reschedule_count(), 1U);
    EXPECT_EQ(net.timestep(), de::time(40.0, de::time_unit::us));
    // The h change rebuilt the iteration matrix values in place: numeric
    // refactors advanced, the symbolic analysis from the first factorization
    // was never repeated.
    EXPECT_EQ(net.symbolic_factorizations(), 1U);
    EXPECT_GE(net.factorizations(), 2U);
}

// ------------------------------------------- block x dynamic interaction ----

namespace {

/// Block-capable ramp source (same token stream on both paths) so dynamic
/// clusters exercise real block calls between reschedule barriers.
struct block_ramp_source : tdf::module {
    tdf::out<double> out;
    double next_value = 0.0;

    explicit block_ramp_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) out.write(next_value++, k);
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        double* y = blk.out_span(out);
        const std::uint64_t tot = blk.count() * out.rate();
        for (std::uint64_t i = 0; i < tot; ++i) y[i] = next_value++;
    }
};

/// Run src -> retimer -> collector(in rate 4) and return the collected
/// waveform plus diagnostics.  Rate-4 collector input gives the source and
/// retimer repetition 4, so block runs of several firings happen INSIDE each
/// period of the dynamic cluster.
struct block_dynamic_run {
    std::vector<double> samples;
    std::vector<de::time> times;
    std::uint64_t reschedules = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t recompiles = 0;
    std::uint64_t src_block_calls = 0;
    std::uint64_t src_block_firings = 0;
    std::uint64_t src_activations = 0;
    std::uint64_t batch_periods = 0;
};

block_dynamic_run run_block_dynamic(bool block, bool toggle, const de::time& dur) {
    de::simulation_context ctx;
    tdf::registry::of(ctx).set_default_block_execution(block);
    block_ramp_source src("src");
    retimer r("r", 10_us, 3, 5);
    r.toggle = toggle;
    collector sink("sink");
    sink.in.set_rate(4);
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    r.in.bind(s1);
    r.out.bind(s2);
    sink.in.bind(s2);
    ctx.run(dur);

    const tdf::cluster& c = only_cluster(ctx);
    block_dynamic_run out;
    out.samples = sink.samples;
    out.times = sink.sample_times;
    out.reschedules = c.reschedule_count();
    out.cache_hits = c.schedule_cache_hits();
    out.recompiles = c.recompile_count();
    out.src_block_calls = src.block_call_count();
    out.src_block_firings = src.block_firing_count();
    out.src_activations = src.activation_count();
    out.batch_periods = c.batch_periods();
    return out;
}

}  // namespace

TEST(block_dynamic, dynamic_cluster_never_fuses_periods) {
    const auto run = run_block_dynamic(true, false, 2000_us);
    // The reschedule barrier: change_attributes() only opens between periods
    // and dynamic clusters never fuse periods, so any in-flight block is
    // flushed before a reschedule can land.
    EXPECT_EQ(run.batch_periods, 1U);
    EXPECT_GE(run.reschedules, 1U);
    // Block calls still happen INSIDE a period (repetition 4 per period).
    EXPECT_GT(run.src_block_calls, 0U);
    EXPECT_GT(run.src_block_firings, run.src_block_calls);
}

TEST(block_dynamic, reschedule_loses_and_duplicates_nothing) {
    const auto blk = run_block_dynamic(true, false, 2000_us);
    const auto base = run_block_dynamic(false, false, 2000_us);
    // The ramp makes loss/duplication visible: samples must be the exact
    // integer sequence 0,1,2,... in both modes, at identical tdf times.
    ASSERT_EQ(blk.samples.size(), base.samples.size());
    for (std::size_t i = 0; i < blk.samples.size(); ++i) {
        ASSERT_EQ(blk.samples[i], static_cast<double>(i)) << "sample " << i;
        ASSERT_EQ(blk.samples[i], base.samples[i]) << "sample " << i;
        ASSERT_EQ(blk.times[i], base.times[i]) << "sample time " << i;
    }
    EXPECT_EQ(blk.reschedules, base.reschedules);
}

TEST(block_dynamic, per_period_toggling_flushes_every_block) {
    // change_attributes() toggles the timestep EVERY period: each period's
    // block run must flush before the barrier, and the stream still counts
    // straight through.
    const auto blk = run_block_dynamic(true, true, 2000_us);
    const auto base = run_block_dynamic(false, true, 2000_us);
    ASSERT_EQ(blk.samples.size(), base.samples.size());
    ASSERT_GT(blk.samples.size(), 20U);
    for (std::size_t i = 0; i < blk.samples.size(); ++i) {
        ASSERT_EQ(blk.samples[i], static_cast<double>(i)) << "sample " << i;
        ASSERT_EQ(blk.times[i], base.times[i]) << "sample time " << i;
    }
    EXPECT_GT(blk.reschedules, 10U);
    // Activations agree with firings: every token fired exactly once.
    EXPECT_EQ(blk.src_activations, base.src_activations);
}

TEST(block_dynamic, schedule_cache_behaves_identically_under_block_mode) {
    const auto blk = run_block_dynamic(true, true, 4000_us);
    const auto base = run_block_dynamic(false, true, 4000_us);
    // Two visited configurations -> two compiles, everything else cache hits;
    // the block path must not change cache behavior.
    EXPECT_EQ(blk.recompiles, base.recompiles);
    EXPECT_EQ(blk.cache_hits, base.cache_hits);
    EXPECT_GT(blk.cache_hits, 5U);
}
