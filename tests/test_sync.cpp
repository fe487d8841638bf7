// Synchronization-layer tests: DE<->TDF converter ports, timestamp accuracy,
// consistent initial state across MoC boundaries, cluster/DE interleaving.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/scenario.hpp"
#include "kernel/context.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/clock.hpp"
#include "kernel/signal.hpp"
#include "lib/oscillator.hpp"
#include "lib/pwm.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "tdf/cluster.hpp"
#include "tdf/converter.hpp"
#include "tdf/module.hpp"
#include "util/object_bag.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
namespace lsf = sca::lsf;
using namespace sca::de::literals;

namespace {

/// Records (time, value) on every change of a DE signal.
struct de_change_logger : de::module {
    de::in<double> in;
    std::vector<std::pair<double, double>> log;

    explicit de_change_logger(const de::module_name& nm) : de::module(nm), in("in") {
        declare_method("watch", [this] { log.emplace_back(now().to_seconds(), in.read()); })
            .sensitive(in)
            .dont_initialize();
    }
};

/// TDF module writing `rate` samples per activation through a de_out port.
struct staircase_writer : tdf::module {
    tdf::de_out<double> out;

    explicit staircase_writer(const de::module_name& nm) : tdf::module(nm), out("out") {
        out.set_rate(4);
    }
    void set_attributes() override { set_timestep(4.0, de::time_unit::us); }
    void processing() override {
        const double base = static_cast<double>(activation_count()) * 4.0;
        for (unsigned k = 0; k < 4; ++k) out.write(base + k, k);
    }
};

}  // namespace

TEST(sync, de_out_multirate_timestamps_are_exact) {
    de::simulation_context sim;
    de::signal<double> wire("wire", -1.0);
    staircase_writer src("src");
    de_change_logger logger("logger");
    src.out.bind(wire);
    logger.in.bind(wire);

    sim.run(12_us);
    // Samples at 0,1,2,3,4,... us with values 0,1,2,3,4,...
    ASSERT_GE(logger.log.size(), 12U);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_NEAR(logger.log[i].first, static_cast<double>(i) * 1e-6, 1e-12) << i;
        EXPECT_DOUBLE_EQ(logger.log[i].second, static_cast<double>(i)) << i;
    }
}

namespace {

struct de_in_sampler : tdf::module {
    tdf::de_in<double> in;
    std::vector<double> seen;

    explicit de_in_sampler(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
    void processing() override { seen.push_back(in.read()); }
};

}  // namespace

TEST(sync, de_in_samples_at_activation_time) {
    de::simulation_context sim;
    de::signal<double> wire("wire", 0.0);
    de_in_sampler mod("mod");
    mod.in.bind(wire);
    // Change the DE value between cluster activations.
    auto& driver = sim.register_method("driver", [&] {
        wire.write(wire.read() + 1.0);
        sim.next_trigger(10_us);
    });
    (void)driver;

    sim.run(35_us);
    // Cluster activations at 0,10,20,30 us; driver also runs at those times.
    // Whether the cluster sees the pre- or post-update value at the shared
    // timestamp is resolved by the signal's deferred update: the cluster
    // reads the OLD value (both run in the same evaluation phase).
    ASSERT_EQ(mod.seen.size(), 4U);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(mod.seen[i], static_cast<double>(i));
    }
}

TEST(sync, consistent_initial_state_at_t0) {
    // Paper: "the synchronization also requires the formal definition of a
    // consistent initial (quiescent) state".  The first TDF sample out of an
    // ELN network must be the DC solution, not zero.
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    bag.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(6.0));
    bag.make<eln::resistor>("r1", net, vin, vout, 1000.0);
    bag.make<eln::resistor>("r2", net, vout, gnd, 2000.0);
    auto& probe = bag.make<eln::tdf_vsink>("probe", net, vout, gnd);

    struct first_sample_sink : tdf::module {
        tdf::in<double> in;
        std::vector<double> got;
        explicit first_sample_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } sink("sink");
    tdf::signal<double> s("s");
    probe.outp.bind(s);
    sink.in.bind(s);

    sim.run(2_us);
    ASSERT_FALSE(sink.got.empty());
    EXPECT_NEAR(sink.got.front(), 4.0, 1e-9);  // DC divider value at t=0
}

TEST(sync, de_event_reaches_network_within_one_period) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    de::signal<double> level("level", 0.0);
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    auto& src = bag.make<eln::de_vsource>("src", net, n, gnd);
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
    src.inp.bind(level);

    sim.run(1_us);
    EXPECT_NEAR(net.voltage(n), 0.0, 1e-12);
    level.write(7.5);
    sim.run(2_us);
    EXPECT_NEAR(net.voltage(n), 7.5, 1e-9);
}

TEST(sync, tdf_cluster_and_de_clock_interleave) {
    de::simulation_context sim;
    de::clock clk("clk", 3_us);
    struct edge_counter : de::module {
        de::in<bool> c;
        int edges = 0;
        explicit edge_counter(const de::module_name& nm) : de::module(nm), c("c") {
            declare_method("count", [this] { ++edges; }).sensitive(c).dont_initialize();
        }
    } counter("counter");
    counter.c.bind(clk.sig());

    struct ticker : tdf::module {
        tdf::out<double> out;
        explicit ticker(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(2.0, de::time_unit::us); }
        void processing() override { out.write(1.0); }
    } tick("tick");
    struct null_sink : tdf::module {
        tdf::in<double> in;
        explicit null_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { (void)in.read(); }
    } sink("sink");
    tdf::signal<double> s("s");
    tick.out.bind(s);
    sink.in.bind(s);

    sim.run(12_us);
    // Both worlds advanced: 12/1.5 = 8 clock edges, 7 TDF activations.
    EXPECT_EQ(counter.edges, 9);           // t=0,1.5,...,12 -> 9 changes
    EXPECT_EQ(tick.activation_count(), 7U);  // t=0,2,...,12
}

TEST(sync, network_activations_track_cluster_period) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(5.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    bag.make<eln::isource>("is", net, gnd, n, eln::waveform::dc(1e-3));
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);

    sim.run(50_us);
    EXPECT_EQ(net.activation_count(), 11U);  // t = 0, 5, ..., 50 us
    EXPECT_EQ(net.factorizations(), 1U);     // linear: factored exactly once
}

// ------------------------------------------------- batched synchronization

TEST(sync, converter_ports_mark_cluster_de_coupled) {
    de::simulation_context sim;
    de::signal<double> wire("wire", -1.0);
    staircase_writer src("src");
    src.out.bind(wire);
    sim.elaborate();
    auto& reg = tdf::registry::of(sim);
    ASSERT_EQ(reg.clusters().size(), 1U);
    // A de_out converter port forces per-period synchronization.
    EXPECT_TRUE(reg.clusters()[0]->de_coupled());
}

TEST(sync, de_controlled_network_is_de_coupled) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    de::signal<double> level("level", 0.0);
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    auto& src = bag.make<eln::de_vsource>("src", net, n, gnd);
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
    src.inp.bind(level);
    sim.elaborate();
    auto& reg = tdf::registry::of(sim);
    ASSERT_EQ(reg.clusters().size(), 1U);
    EXPECT_TRUE(reg.clusters()[0]->de_coupled());
}

TEST(sync, pure_network_cluster_is_not_de_coupled) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    bag.make<eln::isource>("is", net, gnd, n, eln::waveform::dc(1e-3));
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
    sim.elaborate();
    auto& reg = tdf::registry::of(sim);
    ASSERT_EQ(reg.clusters().size(), 1U);
    EXPECT_FALSE(reg.clusters()[0]->de_coupled());
}

namespace {

/// A pure TDF pipeline observed by a periodic DE process reading the raw
/// signal buffer; returns the observer's log.  Guards the batching contract:
/// timed DE observers must see exactly what per-period execution produces.
std::vector<double> run_observed_pipeline(std::uint64_t max_batch_periods) {
    de::simulation_context sim;
    tdf::registry::of(sim).set_default_max_batch_periods(max_batch_periods);

    struct ramp : tdf::module {
        tdf::out<double> out;
        double v = 0.0;
        explicit ramp(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(2.0, de::time_unit::us); }
        void processing() override { out.write(v += 1.0); }
    } src("src");
    struct sink_mod : tdf::module {
        tdf::in<double> in;
        explicit sink_mod(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { (void)in.read(); }
    } snk("snk");
    tdf::signal<double> s("s");
    src.out.bind(s);
    snk.in.bind(s);

    // Periodic observer at 7 us (deliberately unaligned with the 2 us
    // cluster period), reading the most recent token.
    std::vector<double> log;
    auto& watcher = sim.register_method("watch", [&] {
        log.push_back(s.last_value());
        sim.next_trigger(7_us);
    });
    (void)watcher;

    sim.run(200_us);
    return log;
}

}  // namespace

TEST(sync, batched_execution_invisible_to_timed_de_observer) {
    const auto per_period = run_observed_pipeline(1);
    const auto batched = run_observed_pipeline(tdf::cluster::k_default_max_batch_periods);
    ASSERT_EQ(per_period.size(), batched.size());
    for (std::size_t i = 0; i < per_period.size(); ++i) {
        ASSERT_EQ(per_period[i], batched[i]) << "observation " << i;
    }
}

TEST(sync, batched_network_reuses_factorization) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto n = net.create_node("n");
    bag.make<eln::vsource>("vs", net, n, gnd, eln::waveform::sine(1.0, 10e3));
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);

    sim.run(500_us);
    auto& reg = tdf::registry::of(sim);
    ASSERT_EQ(reg.clusters().size(), 1U);
    EXPECT_FALSE(reg.clusters()[0]->de_coupled());
    EXPECT_EQ(net.activation_count(), 501U);
    // The iteration matrix is factored exactly once even though activations
    // run in batches of up to k_default_max_batch_periods.
    EXPECT_EQ(net.factorizations(), 1U);
}

// ------------------------------------- DE coupling by direction (batching)

namespace {

/// TDF ramp: sample k carries the value k.
struct ramp_source : tdf::module {
    tdf::out<double> out;
    explicit ramp_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
    void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
    void processing() override { out.write(static_cast<double>(activation_count())); }
};

/// Keeps every sample it consumes.
struct sample_collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> got;
    explicit sample_collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { got.push_back(in.read()); }
};

/// Forwards the DE value its de_in port reads, one sample per 1 us step.
struct de_in_follower : tdf::module {
    tdf::de_in<double> in;
    tdf::out<double> out;
    explicit de_in_follower(const de::module_name& nm)
        : tdf::module(nm), in("in"), out("out") {}
    void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
    void processing() override { out.write(in.read()); }
};

/// What the DE-reading model leaves behind.
struct de_reading_run {
    std::vector<double> probe;     // switched node, sampled every 5 us
    std::vector<double> followed;  // the de_in cluster's samples
    std::uint64_t timed_notifications = 0;
    std::uint64_t cycles = 0;
    std::uint64_t fused_cycles = 0;
    std::vector<bool> writers;  // cluster::de_writer() per cluster
};

/// Two clusters that only read DE signals: a PWM-gated RC behind a
/// de_rswitch, probed every 5 us, and a de_in port following a DE level
/// that a DE process steps every 10 us.
de_reading_run run_de_reading_model(std::uint64_t max_batch_periods) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    tdf::registry::of(sim).set_default_max_batch_periods(max_batch_periods);

    de::signal<double> duty("duty", 0.25);
    de::signal<bool> gate("gate", false);
    lib::pwm mod("mod", 20_us);
    mod.duty.bind(duty);
    mod.out.bind(gate);
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    bag.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(5.0));
    auto& sw = bag.make<eln::de_rswitch>("sw", net, vin, vout, 10.0, 1e6);
    bag.make<eln::capacitor>("c", net, vout, gnd, 1e-6);
    bag.make<eln::resistor>("load", net, vout, gnd, 100.0);
    sw.ctrl.bind(gate);

    de::signal<double> level("level", 0.0);
    sim.register_method("stepper", [&] {
        level.write(level.read() + 1.0);
        sim.next_trigger(10_us);
    });
    de_in_follower follow("follow");
    sample_collector coll("coll");
    tdf::signal<double> s("s");
    follow.in.bind(level);
    follow.out.bind(s);
    coll.in.bind(s);

    de_reading_run r;
    sim.register_method("probe", [&] {
        r.probe.push_back(net.voltage(vout));
        sim.next_trigger(5_us);
    });
    sim.run(400_us);
    r.followed = coll.got;
    r.timed_notifications = sim.sched().timed_notification_count();
    for (const auto& c : tdf::registry::of(sim).clusters()) {
        EXPECT_TRUE(c->de_coupled());
        r.writers.push_back(c->de_writer());
        r.cycles += c->cycle_count();
        r.fused_cycles += c->fused_cycle_count();
    }
    return r;
}

}  // namespace

TEST(sync, de_reading_clusters_batch_bit_identically) {
    const de_reading_run per_period = run_de_reading_model(1);
    const de_reading_run batched =
        run_de_reading_model(tdf::cluster::k_default_max_batch_periods);
    ASSERT_EQ(batched.writers, std::vector<bool>(2, false));
    EXPECT_EQ(batched.cycles, 802U);  // two clusters, t = 0 .. 400 us
    EXPECT_EQ(per_period.cycles, batched.cycles);
    // Nothing a DE-reading cluster reads changes before the batch bound, so
    // its batches run as multi-period passes.
    EXPECT_GT(batched.fused_cycles, 0U);
    EXPECT_EQ(per_period.fused_cycles, 0U);

    // Batched: the clusters wake only where a DE event (PWM edge, probe,
    // level step) is due, so the kernel sees far fewer timed notifications
    // than cycles; per-period execution re-arms every cycle.
    EXPECT_LT(batched.timed_notifications * 2, batched.cycles);
    EXPECT_GE(per_period.timed_notifications, per_period.cycles);

    EXPECT_EQ(batched.probe, per_period.probe);
    EXPECT_EQ(batched.followed, per_period.followed);

    // de_in reads the DE value valid at each sample's time: the level steps
    // to n + 1 at t = 10n us, and a sample sharing that instant with the
    // step reads the value before it (the write lands in the update phase).
    ASSERT_EQ(batched.followed.size(), 401U);
    for (std::size_t k = 0; k < batched.followed.size(); ++k) {
        const double expected = static_cast<double>(k / 10 + (k % 10 == 0 ? 0 : 1));
        ASSERT_EQ(batched.followed[k], expected) << "sample " << k;
    }
}

namespace {

/// Logs (time, value) of every activation of a DE process sensitive to
/// `sig`, then runs the context for 100 us.
std::vector<std::pair<double, double>> watch_for_100us(de::simulation_context& sim,
                                                       de::signal<double>& sig) {
    std::vector<std::pair<double, double>> log;
    auto& watcher = sim.register_method(
        "watcher", [&] { log.emplace_back(sim.now().to_seconds(), sig.read()); });
    watcher.dont_initialize();
    watcher.make_sensitive(sig.value_changed_event());
    sim.run(100_us);
    for (const auto& c : tdf::registry::of(sim).clusters()) EXPECT_TRUE(c->de_writer());
    return log;
}

/// One watcher activation per 1 us period, at that sample's time, carrying
/// that sample's value (the ramp's k), within `tol`.
void expect_one_activation_per_period(const std::vector<std::pair<double, double>>& log,
                                      double tol) {
    ASSERT_EQ(log.size(), 101U);  // t = 0 .. 100 us
    for (std::size_t k = 0; k < log.size(); ++k) {
        EXPECT_NEAR(log[k].first, static_cast<double>(k) * 1e-6, 1e-15) << "sample " << k;
        EXPECT_NEAR(log[k].second, static_cast<double>(k), tol) << "sample " << k;
    }
}

}  // namespace

TEST(sync, eln_de_vsink_cluster_syncs_every_period) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    de::signal<double> wire("wire", -1.0);
    ramp_source ramp("ramp");
    tdf::signal<double> s("s");
    eln::network net("net");
    auto gnd = net.ground();
    auto n = net.create_node("n");
    auto& drive = bag.make<eln::tdf_vsource>("drive", net, n, gnd);
    bag.make<eln::resistor>("r", net, n, gnd, 1000.0);
    auto& sense = bag.make<eln::de_vsink>("sense", net, n, gnd);
    ramp.out.bind(s);
    drive.inp.bind(s);
    sense.outp.bind(wire);
    expect_one_activation_per_period(watch_for_100us(sim, wire), 1e-9);
}

TEST(sync, lsf_to_de_cluster_syncs_every_period) {
    de::simulation_context sim;
    de::signal<double> wire("wire", -1.0);
    ramp_source ramp("ramp");
    tdf::signal<double> s("s");
    lsf::system sys("sys");
    auto u = sys.create_signal("u");
    lsf::from_tdf from("from", sys, u);
    lsf::to_de to("to", sys, u);
    ramp.out.bind(s);
    from.inp.bind(s);
    to.outp.bind(wire);
    expect_one_activation_per_period(watch_for_100us(sim, wire), 1e-9);
}

TEST(sync, tdf_de_out_cluster_syncs_every_period) {
    struct ramp_writer : tdf::module {
        tdf::de_out<double> out;
        explicit ramp_writer(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(1.0, de::time_unit::us); }
        void processing() override { out.write(static_cast<double>(activation_count())); }
    };
    de::simulation_context sim;
    de::signal<double> wire("wire", -1.0);
    ramp_writer src("src");
    src.out.bind(wire);
    expect_one_activation_per_period(watch_for_100us(sim, wire), 0.0);
}

namespace {

/// Writes its activation index through a de_out port every 3 us.
struct slow_ramp_writer : tdf::module {
    tdf::de_out<double> out;
    explicit slow_ramp_writer(const de::module_name& nm) : tdf::module(nm), out("out") {}
    void set_attributes() override { set_timestep(3.0, de::time_unit::us); }
    void processing() override { out.write(static_cast<double>(activation_count())); }
};

/// A de_in cluster reading what a DE-writing cluster writes; `writer_first`
/// picks the construction order, which decides the order of the two
/// clusters' pre-timestep callbacks at their shared instants.
std::vector<double> read_a_writer_cluster(bool writer_first) {
    de::simulation_context sim;
    sca::util::object_bag bag;
    de::signal<double> wire("wire", -1.0);
    if (writer_first) bag.make<slow_ramp_writer>("writer").out.bind(wire);
    auto& follow = bag.make<de_in_follower>("follow");
    auto& coll = bag.make<sample_collector>("coll");
    if (!writer_first) bag.make<slow_ramp_writer>("writer").out.bind(wire);
    tdf::signal<double> s("s");
    follow.in.bind(wire);
    follow.out.bind(s);
    coll.in.bind(s);
    sim.run(60_us);
    return coll.got;
}

}  // namespace

TEST(sync, de_reader_batch_stops_at_writer_cluster_wake) {
    // Nothing but the writer cluster's own re-arm bounds the reader's batch,
    // and at a shared instant that re-arm may still be pending when the
    // reader plans: the planner must bound by the writer's next wake.
    for (const bool writer_first : {true, false}) {
        const std::vector<double> got = read_a_writer_cluster(writer_first);
        ASSERT_EQ(got.size(), 61U);
        EXPECT_EQ(got[0], -1.0);  // the write at t = 0 lands after the read
        for (std::size_t k = 1; k < got.size(); ++k) {
            // The write at t = 3j carries j; a read sharing that instant
            // still sees the value written 3 us earlier.
            const double expected = static_cast<double>(k % 3 == 0 ? k / 3 - 1 : k / 3);
            ASSERT_EQ(got[k], expected) << "sample " << k << ", writer_first=" << writer_first;
        }
    }
}

// -------------------------------------------------- no stale probe samples

namespace {

/// A testbench probe of a network voltage, a probe of the TDF signal that
/// carries it (last_value()), and a TDF collector in the same cluster
/// consuming that signal; `max_batch_periods` applies to every cluster.
struct probed_run {
    std::vector<double> probe;
    std::vector<double> signal_probe;
    std::vector<double> collected;
};

probed_run run_probed(const core::scenario& sc, std::uint64_t max_batch_periods,
                      const core::params& overrides = {}) {
    auto tb = sc.build(overrides);
    tdf::registry::of(tb->context()).set_default_max_batch_periods(max_batch_periods);
    tb->run();
    auto* coll = dynamic_cast<sample_collector*>(tb->context().find_object("coll"));
    EXPECT_NE(coll, nullptr);
    return {tb->waveform("v"), tb->waveform("s"),
            coll != nullptr ? coll->got : std::vector<double>{}};
}

std::size_t repeats(const std::vector<double>& v) {
    std::size_t n = 0;
    for (std::size_t k = 1; k < v.size(); ++k) n += v[k] == v[k - 1] ? 1 : 0;
    return n;
}

}  // namespace

TEST(sync, probe_at_cluster_period_reads_the_current_sample) {
    // A de_rswitch cluster driving an RC from a sine, probed at its own 1 us
    // period: the probe must read x(t) at every instant, never x(t - h).
    // With "writer" set, an eln::de_vsink makes it a DE-writing cluster,
    // which syncs every period under the same re-arm rule.
    static const core::scenario sc = core::scenario::define(
        "sync_switched_rc_probe", core::params{{"writer", 0.0}},
        [](core::testbench& tb, const core::params& p) {
            auto& gate = tb.make<de::signal<bool>>("gate", true);
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(1.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::sine(5.0, 5e3));
            auto& sw = tb.make<eln::de_rswitch>("sw", net, vin, vout, 100.0, 1e6);
            tb.make<eln::capacitor>("c", net, vout, gnd, 1e-6);
            sw.ctrl.bind(gate);
            auto& sense = tb.make<eln::tdf_vsink>("sense", net, vout, gnd);
            auto& coll = tb.make<sample_collector>("coll");
            auto& s = tb.make<tdf::signal<double>>("s");
            sense.outp.bind(s);
            coll.in.bind(s);
            if (p.number("writer") != 0.0) {
                auto& wire = tb.make<de::signal<double>>("wire", 0.0);
                tb.make<eln::de_vsink>("out", net, vout, gnd).outp.bind(wire);
            }
            tb.probe("v", [&net, vout] { return net.voltage(vout); });
            tb.probe("s", s);
            tb.set_sample_period(1_us);
            tb.set_stop_time(200_us);
        });
    for (const double writer : {0.0, 1.0}) {
        const core::params overrides{{"writer", writer}};
        const probed_run r =
            run_probed(sc, tdf::cluster::k_default_max_batch_periods, overrides);
        ASSERT_EQ(r.probe.size(), 201U) << "writer=" << writer;
        EXPECT_EQ(repeats(r.probe), 0U) << "writer=" << writer;
        EXPECT_EQ(r.probe, r.collected) << "writer=" << writer;
        EXPECT_EQ(r.signal_probe, r.collected) << "writer=" << writer;
        const probed_run per_period = run_probed(sc, 1, overrides);
        EXPECT_EQ(per_period.probe, r.probe) << "writer=" << writer;
        EXPECT_EQ(per_period.signal_probe, r.signal_probe) << "writer=" << writer;
    }
}

TEST(sync, per_period_stream_matches_batched_stream) {
    // The RC-stream shape: a pure sine cluster driving an RC through
    // tdf_vsource, probed at its own 1 us period.  max_batch_periods = 1 and
    // the default must record the same samples, each the current one.
    static const core::scenario sc = core::scenario::define(
        "sync_rc_stream_probe", [](core::testbench& tb, const core::params&) {
            auto& src = tb.make<lib::sine_source>("src", 1.0, 5e3);
            src.set_timestep(1.0, de::time_unit::us);
            auto& net = tb.make<eln::network>("net");
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            auto& drive = tb.make<eln::tdf_vsource>("drive", net, vin, gnd);
            tb.make<eln::resistor>("r", net, vin, vout, 1e3);
            tb.make<eln::capacitor>("c", net, vout, gnd, 20e-9);
            auto& sense = tb.make<eln::tdf_vsink>("sense", net, vout, gnd);
            auto& coll = tb.make<sample_collector>("coll");
            auto& sin_sig = tb.make<tdf::signal<double>>("sin_sig");
            auto& s = tb.make<tdf::signal<double>>("s");
            src.out.bind(sin_sig);
            drive.inp.bind(sin_sig);
            sense.outp.bind(s);
            coll.in.bind(s);
            tb.probe("v", [&net, vout] { return net.voltage(vout); });
            tb.probe("s", s);
            tb.set_sample_period(1_us);
            tb.set_stop_time(2_ms);
        });
    const probed_run batched = run_probed(sc, tdf::cluster::k_default_max_batch_periods);
    const probed_run per_period = run_probed(sc, 1);
    ASSERT_EQ(batched.probe.size(), 2001U);
    EXPECT_EQ(per_period.probe, batched.probe);
    EXPECT_EQ(per_period.signal_probe, batched.signal_probe);
    EXPECT_EQ(batched.probe, batched.collected);
    EXPECT_EQ(batched.signal_probe, batched.collected);
}
