// Synchronization-layer tests: DE<->TDF converter ports, timestamp accuracy,
// consistent initial state across MoC boundaries, cluster/DE interleaving.
#include <gtest/gtest.h>

#include <vector>

#include "kernel/context.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/clock.hpp"
#include "kernel/signal.hpp"
#include "tdf/cluster.hpp"
#include "tdf/converter.hpp"
#include "tdf/module.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
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
