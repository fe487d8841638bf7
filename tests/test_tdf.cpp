// TDF MoC tests: repetition vectors, static scheduling, multirate buffers,
// delays, timestep propagation, deadlock detection.
#include <gtest/gtest.h>

#include <vector>

#include "kernel/context.hpp"
#include "tdf/cluster.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "tdf/schedule.hpp"
#include "util/report.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
using namespace sca::de::literals;

// ------------------------------------------------------- repetition vectors

TEST(repetition_vector, uniform_chain_is_all_ones) {
    const std::vector<tdf::rate_edge> edges{{0, 1, 1, 1}, {1, 2, 1, 1}};
    const auto reps = tdf::repetition_vector(3, edges);
    EXPECT_EQ(reps, (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(repetition_vector, multirate_balances) {
    // A -2:3-> B : 3 firings of A produce 6 tokens = 2 firings of B.
    const std::vector<tdf::rate_edge> edges{{0, 1, 2, 3}};
    const auto reps = tdf::repetition_vector(2, edges);
    EXPECT_EQ(reps, (std::vector<std::uint64_t>{3, 2}));
}

TEST(repetition_vector, chain_of_ratios) {
    // A -1:2-> B -1:2-> C : A 4x, B 2x, C 1x.
    const std::vector<tdf::rate_edge> edges{{0, 1, 1, 2}, {1, 2, 1, 2}};
    const auto reps = tdf::repetition_vector(3, edges);
    EXPECT_EQ(reps, (std::vector<std::uint64_t>{4, 2, 1}));
}

TEST(repetition_vector, disconnected_modules_get_one) {
    const auto reps = tdf::repetition_vector(2, {});
    EXPECT_EQ(reps, (std::vector<std::uint64_t>{1, 1}));
}

TEST(repetition_vector, inconsistent_rates_throw) {
    // Cycle A->B->A with mismatched products has no finite schedule.
    const std::vector<tdf::rate_edge> edges{{0, 1, 2, 1}, {1, 0, 1, 1}};
    EXPECT_THROW((void)tdf::repetition_vector(2, edges), sca::util::error);
}

// ----------------------------------------------------------- module helpers

namespace {

struct ramp_source : tdf::module {
    tdf::out<double> out;
    double next_value = 0.0;

    explicit ramp_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
    void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) out.write(next_value++, k);
    }
};

struct scaler : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    double k;

    scaler(const de::module_name& nm, double gain) : tdf::module(nm), in("in"), out("out"), k(gain) {}
    void processing() override { out.write(k * in.read()); }
};

struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;

    explicit collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override {
        for (unsigned j = 0; j < in.rate(); ++j) samples.push_back(in.read(j));
    }
};

}  // namespace

// --------------------------------------------------------- cluster behavior

TEST(tdf_cluster, single_rate_pipeline_executes_in_order) {
    de::simulation_context ctx;
    ramp_source src("src");
    scaler amp("amp", 2.0);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    amp.in.bind(s1);
    amp.out.bind(s2);
    sink.in.bind(s2);

    ctx.run(5_us);
    ASSERT_EQ(sink.samples.size(), 6U);  // t = 0..5 us inclusive
    for (std::size_t i = 0; i < sink.samples.size(); ++i) {
        EXPECT_DOUBLE_EQ(sink.samples[i], 2.0 * static_cast<double>(i));
    }
    EXPECT_EQ(src.timestep(), 1_us);
    EXPECT_EQ(amp.timestep(), 1_us);
}

TEST(tdf_cluster, multirate_producer_consumer) {
    de::simulation_context ctx;
    ramp_source src("src");
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.set_rate(2);
    src.out.bind(s);
    sink.in.bind(s);
    // sink consumes 3 per firing: reps src=3, sink=2 per cluster cycle.
    // Configure via attribute hook is only on src; set rate directly here.
    sink.in.set_rate(3);

    ctx.run(6_us);
    // src timestep 1us with rate 2 -> sample period 0.5us; sink gets every
    // sample in order.
    ASSERT_GE(sink.samples.size(), 12U);
    for (std::size_t i = 0; i < sink.samples.size(); ++i) {
        EXPECT_DOUBLE_EQ(sink.samples[i], static_cast<double>(i));
    }
    EXPECT_EQ(src.repetitions(), 3U);
    EXPECT_EQ(sink.repetitions(), 2U);
}

TEST(tdf_cluster, port_delay_shifts_stream) {
    de::simulation_context ctx;
    ramp_source src("src");
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.bind(s);
    sink.in.bind(s);
    sink.in.set_delay(2);

    ctx.run(4_us);
    // Two initial tokens (default 0.0) precede the ramp.
    ASSERT_EQ(sink.samples.size(), 5U);
    EXPECT_DOUBLE_EQ(sink.samples[0], 0.0);
    EXPECT_DOUBLE_EQ(sink.samples[1], 0.0);
    EXPECT_DOUBLE_EQ(sink.samples[2], 0.0);
    EXPECT_DOUBLE_EQ(sink.samples[3], 1.0);
    EXPECT_DOUBLE_EQ(sink.samples[4], 2.0);
}

namespace {

struct feedback_inc : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;

    explicit feedback_inc(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
    void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
    void processing() override { out.write(in.read() + 1.0); }
};

struct feedback_pass : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    std::vector<double> seen;

    explicit feedback_pass(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
    void processing() override {
        seen.push_back(in.read());
        out.write(in.read());
    }
};

}  // namespace

TEST(tdf_cluster, feedback_without_delay_deadlocks) {
    de::simulation_context ctx;
    feedback_inc a("a");
    feedback_pass b("b");
    tdf::signal<double> s1("s1"), s2("s2");
    a.out.bind(s1);
    b.in.bind(s1);
    b.out.bind(s2);
    a.in.bind(s2);
    EXPECT_THROW(ctx.elaborate(), sca::util::error);
}

TEST(tdf_cluster, feedback_with_delay_accumulates) {
    de::simulation_context ctx;
    feedback_inc a("a");
    feedback_pass b("b");
    tdf::signal<double> s1("s1"), s2("s2");
    a.out.bind(s1);
    b.in.bind(s1);
    b.out.bind(s2);
    a.in.bind(s2);
    a.in.set_delay(1);  // break the cycle

    ctx.run(4_us);
    // Counter: a adds 1 each cycle starting from the initial token 0.
    ASSERT_EQ(b.seen.size(), 5U);
    EXPECT_DOUBLE_EQ(b.seen[0], 1.0);
    EXPECT_DOUBLE_EQ(b.seen[4], 5.0);
}

TEST(tdf_cluster, missing_timestep_anchor_fails) {
    de::simulation_context ctx;
    scaler lonely("lonely", 1.0);
    tdf::signal<double> sin_("sin"), sout_("sout");
    // Self-loop to make it a valid cluster with no anchor anywhere.
    scaler lonely2("lonely2", 1.0);
    lonely.out.bind(sin_);
    lonely2.in.bind(sin_);
    lonely2.out.bind(sout_);
    lonely.in.bind(sout_);
    lonely.in.set_delay(1);
    EXPECT_THROW(ctx.elaborate(), sca::util::error);
}

TEST(tdf_cluster, conflicting_anchors_fail) {
    de::simulation_context ctx;
    ramp_source src("src");  // anchors 1 us
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.bind(s);
    sink.in.bind(s);
    sink.set_timestep(2.0, de::time_unit::us);  // conflicts at equal rates
    EXPECT_THROW(ctx.elaborate(), sca::util::error);
}

TEST(tdf_cluster, port_timestep_anchor_propagates) {
    de::simulation_context ctx;
    scaler amp("amp", 1.0);
    collector sink("sink");
    // Build src without module anchor; anchor via sink port timestep.
    struct plain_source : tdf::module {
        tdf::out<double> out;
        explicit plain_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void processing() override { out.write(1.0); }
    } src("src");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.bind(s1);
    amp.in.bind(s1);
    amp.out.bind(s2);
    sink.in.bind(s2);
    sink.in.set_timestep(5.0, de::time_unit::us);

    ctx.run(10_us);
    EXPECT_EQ(src.timestep(), 5_us);
    EXPECT_EQ(sink.samples.size(), 3U);
}

TEST(tdf_cluster, two_independent_clusters) {
    de::simulation_context ctx;
    ramp_source src1("src1");
    collector sink1("sink1");
    ramp_source src2("src2");
    collector sink2("sink2");
    src2.set_timestep(2.0, de::time_unit::us);  // overridden in set_attributes!
    tdf::signal<double> s1("s1"), s2("s2");
    src1.out.bind(s1);
    sink1.in.bind(s1);
    src2.out.bind(s2);
    sink2.in.bind(s2);

    ctx.elaborate();
    auto& reg = tdf::registry::of(ctx);
    EXPECT_EQ(reg.clusters().size(), 2U);
    ctx.run(3_us);
    EXPECT_EQ(sink1.samples.size(), 4U);
    EXPECT_EQ(sink2.samples.size(), 4U);
}

TEST(tdf_port, rate_bounds_are_enforced) {
    de::simulation_context ctx;
    struct bad_reader : tdf::module {
        tdf::in<double> in;
        explicit bad_reader(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { (void)in.read(5); }  // rate is 1
    } mod("mod");
    ramp_source src("src");
    tdf::signal<double> s("s");
    src.out.bind(s);
    mod.in.bind(s);
    EXPECT_THROW(ctx.run(1_us), sca::util::error);
}

TEST(tdf_signal, unbound_port_fails) {
    de::simulation_context ctx;
    scaler amp("amp", 1.0);
    tdf::signal<double> s("s");
    amp.out.bind(s);
    // amp.in left unbound.
    EXPECT_THROW(ctx.elaborate(), sca::util::error);
}

TEST(tdf_cluster, schedule_respects_data_dependencies) {
    de::simulation_context ctx;
    ramp_source src("src");
    scaler a("a", 3.0);
    scaler b("b", 5.0);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2"), s3("s3");
    src.out.bind(s1);
    a.in.bind(s1);
    a.out.bind(s2);
    b.in.bind(s2);
    b.out.bind(s3);
    sink.in.bind(s3);

    ctx.run(2_us);
    ASSERT_EQ(sink.samples.size(), 3U);
    EXPECT_DOUBLE_EQ(sink.samples[1], 15.0);

    auto& reg = tdf::registry::of(ctx);
    ASSERT_EQ(reg.clusters().size(), 1U);
    const auto& program = reg.clusters()[0]->program();
    ASSERT_EQ(program.size(), 4U);
    // src before a before b before sink.
    auto pos = [&](const tdf::module* m) {
        for (std::size_t i = 0; i < program.size(); ++i) {
            if (program[i].mod == m) return i;
        }
        return std::size_t{999};
    };
    EXPECT_LT(pos(&src), pos(&a));
    EXPECT_LT(pos(&a), pos(&b));
    EXPECT_LT(pos(&b), pos(&sink));
}

// --------------------------------------------- compiled firing program

TEST(repetition_vector, coprime_rates_balance) {
    // A -3:5-> B : 5 firings of A produce 15 tokens = 3 firings of B.
    const std::vector<tdf::rate_edge> edges{{0, 1, 3, 5}};
    const auto reps = tdf::repetition_vector(2, edges);
    EXPECT_EQ(reps, (std::vector<std::uint64_t>{5, 3}));
}

TEST(compile_schedule, merges_consecutive_firings) {
    // 0 -1:1-> 1 (rate 4 out) -4:1-> 2 : reps {1, 1, 4}; module 2's four
    // firings are consecutive, so the program has three entries.
    std::vector<tdf::sdf_signal_desc> sigs(2);
    sigs[0].writer = {0, 1, 0};
    sigs[0].readers = {{1, 1, 0}};
    sigs[1].writer = {1, 4, 0};
    sigs[1].readers = {{2, 1, 0}};
    const auto compiled = tdf::compile_schedule({1, 1, 4}, sigs);
    EXPECT_EQ(compiled.total_firings, 6U);
    ASSERT_EQ(compiled.program.size(), 3U);
    EXPECT_EQ(compiled.program[2].module, 2U);
    EXPECT_EQ(compiled.program[2].first_firing, 0U);
    EXPECT_EQ(compiled.program[2].count, 4U);
}

TEST(compile_schedule, buffer_holds_full_period_of_tokens) {
    // Writer rate 4 x 3 repetitions = 12 tokens per period.
    std::vector<tdf::sdf_signal_desc> sigs(1);
    sigs[0].writer = {0, 4, 0};
    sigs[0].readers = {{1, 6, 0}};
    const auto compiled = tdf::compile_schedule({3, 2}, sigs);
    ASSERT_EQ(compiled.buffer_capacity.size(), 1U);
    EXPECT_GE(compiled.buffer_capacity[0], 12U);
}

TEST(compile_schedule, batch_periods_follow_the_pass_rule) {
    // Chain 0 -> 1: every scaled program is legal, so a pass fuses up to the
    // cap, and the ring holds the pass's 64 tokens plus one firing of slack.
    std::vector<tdf::sdf_signal_desc> chain(1);
    chain[0].writer = {0, 1, 0};
    chain[0].readers = {{1, 1, 0}};
    EXPECT_EQ(tdf::compile_schedule({1, 1}, chain).batch_periods, 1U);
    const auto fused = tdf::compile_schedule({1, 1}, chain, 64);
    EXPECT_EQ(fused.batch_periods, 64U);
    EXPECT_EQ(fused.buffer_capacity, (std::vector<std::size_t>{65}));
    EXPECT_EQ(tdf::compile_schedule({1, 1}, chain, 1).buffer_capacity,
              (std::vector<std::size_t>{2}));

    // Self-loop through a 1-token delay: the module counts its own writes.
    std::vector<tdf::sdf_signal_desc> self(1);
    self[0].writer = {0, 1, 0};
    self[0].readers = {{0, 1, 1}};
    EXPECT_EQ(tdf::compile_schedule({1}, self, 64).batch_periods, 64U);

    // Loop 0 -> 1 -> 0 closed by 3 delay tokens: module 0 may run at most 3
    // firings ahead of module 1.
    std::vector<tdf::sdf_signal_desc> loop(2);
    loop[0].writer = {0, 1, 0};
    loop[0].readers = {{1, 1, 0}};
    loop[1].writer = {1, 1, 0};
    loop[1].readers = {{0, 1, 3}};
    EXPECT_EQ(tdf::compile_schedule({1, 1}, loop, 64).batch_periods, 3U);
    EXPECT_EQ(tdf::compile_schedule({1, 1}, loop, 2).batch_periods, 2U);

    // A reader listed before its writer fires first on its 2 delay tokens
    // (PASS sweeps in index order), so those tokens bound the pass too.
    std::vector<tdf::sdf_signal_desc> reversed(1);
    reversed[0].writer = {1, 1, 0};
    reversed[0].readers = {{0, 1, 2}};
    EXPECT_EQ(tdf::compile_schedule({1, 1}, reversed, 64).batch_periods, 2U);
}

TEST(compile_schedule, deadlock_without_delay_throws) {
    // 0 <-> 1 cycle with no initial tokens: nothing can fire.
    std::vector<tdf::sdf_signal_desc> sigs(2);
    sigs[0].writer = {0, 1, 0};
    sigs[0].readers = {{1, 1, 0}};
    sigs[1].writer = {1, 1, 0};
    sigs[1].readers = {{0, 1, 0}};
    EXPECT_THROW((void)tdf::compile_schedule({1, 1}, sigs), sca::util::error);
}

TEST(tdf_cluster, single_module_cluster_runs) {
    de::simulation_context ctx;
    struct lone_counter : tdf::module {
        std::uint64_t ticks = 0;
        explicit lone_counter(const de::module_name& nm) : tdf::module(nm) {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { ++ticks; }
    } mod("mod");

    ctx.run(10_us);
    EXPECT_EQ(mod.ticks, 11U);  // t = 0..10 us
    auto& reg = tdf::registry::of(ctx);
    ASSERT_EQ(reg.clusters().size(), 1U);
    ASSERT_EQ(reg.clusters()[0]->program().size(), 1U);
    EXPECT_EQ(reg.clusters()[0]->program()[0].count, 1U);
    EXPECT_FALSE(reg.clusters()[0]->de_coupled());
}

TEST(tdf_cluster, program_is_run_length_compressed) {
    de::simulation_context ctx;
    ramp_source src("src");
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.bind(s);
    sink.in.bind(s);
    sink.in.set_rate(4);  // reps: src 4, sink 1

    ctx.elaborate();
    auto& reg = tdf::registry::of(ctx);
    ASSERT_EQ(reg.clusters().size(), 1U);
    const auto& c = *reg.clusters()[0];
    ASSERT_EQ(c.program().size(), 2U);  // compiled: {src x4}, {sink x1}
    EXPECT_EQ(c.program()[0].mod, &src);
    EXPECT_EQ(c.program()[0].count, 4U);
    EXPECT_EQ(c.program()[1].mod, &sink);
    EXPECT_EQ(c.program()[1].count, 1U);
}

TEST(tdf_cluster, signal_buffer_sized_rate_times_repetition) {
    de::simulation_context ctx;
    ramp_source src("src");
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.set_rate(4);
    src.out.bind(s);
    sink.in.bind(s);
    sink.in.set_rate(6);  // reps: src 3, sink 2 -> 12 tokens per period

    ctx.elaborate();
    EXPECT_GE(s.capacity(), 12U);
}

namespace {

/// Deterministic multirate pipeline; returns the sink's collected samples.
std::vector<double> run_multirate_pipeline(std::uint64_t max_batch_periods,
                                           const de::time& duration) {
    de::simulation_context ctx;
    tdf::registry::of(ctx).set_default_max_batch_periods(max_batch_periods);
    ramp_source src("src");
    scaler up("up", 1.5);
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    src.out.set_rate(2);
    src.out.bind(s1);
    up.in.bind(s1);
    up.in.set_rate(3);
    up.out.bind(s2);
    sink.in.bind(s2);
    sink.in.set_delay(1);
    ctx.run(duration);
    return sink.samples;
}

}  // namespace

TEST(tdf_cluster, batched_execution_is_bit_identical_to_per_period) {
    const auto per_period = run_multirate_pipeline(1, 1_ms);
    const auto batched = run_multirate_pipeline(tdf::cluster::k_default_max_batch_periods, 1_ms);
    ASSERT_EQ(per_period.size(), batched.size());
    for (std::size_t i = 0; i < per_period.size(); ++i) {
        ASSERT_EQ(per_period[i], batched[i]) << "sample " << i;  // exact, not near
    }
}

TEST(tdf_cluster, batching_reduces_kernel_interactions) {
    de::simulation_context ctx;
    ramp_source src("src");
    collector sink("sink");
    tdf::signal<double> s("s");
    src.out.bind(s);
    sink.in.bind(s);

    ctx.run(de::time(1.0, de::time_unit::ms));  // 1001 periods at 1 us
    auto& reg = tdf::registry::of(ctx);
    ASSERT_EQ(reg.clusters().size(), 1U);
    EXPECT_EQ(reg.clusters()[0]->cycle_count(), 1001U);
    // Every DE interaction is at most two process activations (cycle +
    // batch check); without batching there would be >= 1001.
    ASSERT_NE(reg.clusters()[0]->process(), nullptr);
    EXPECT_LT(reg.clusters()[0]->process()->activation_count(), 150U);
}
