// Property-based sweeps over randomized models: conservation laws, SDF
// balance/schedule invariants, filter stability, solver robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>

#include "kernel/context.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "solver/linear_dae.hpp"
#include "tdf/cluster.hpp"
#include "tdf/module.hpp"
#include "tdf/schedule.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace tdf = sca::tdf;
namespace solver = sca::solver;
using namespace sca::de::literals;

// ---------------------------------------------------- conservation property

class random_ladder : public ::testing::TestWithParam<int> {};

TEST_P(random_ladder, dc_solution_satisfies_kirchhoff) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919U + 3U);
    std::uniform_real_distribution<double> res(100.0, 100e3);
    std::uniform_int_distribution<int> len(2, 12);

    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    const int n = len(rng);
    std::vector<eln::node> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back(net.create_node("n" + std::to_string(i)));
    bag.make<eln::vsource>("vs", net, nodes[0], gnd, eln::waveform::dc(10.0));
    std::vector<double> series_r;
    for (int i = 0; i + 1 < n; ++i) {
        series_r.push_back(res(rng));
        bag.make<eln::resistor>("rs" + std::to_string(i), net, nodes[i], nodes[i + 1],
                          series_r.back());
        bag.make<eln::resistor>("rp" + std::to_string(i), net, nodes[i + 1], gnd, res(rng));
    }

    sim.run(3_us);
    // KCL check at every internal node: the solved state must satisfy the
    // assembled equations (residual of A x - q).
    auto& sys = net.equations();
    const auto x = net.state();
    const auto ax = sys.a().multiply(x);
    const auto q = sys.rhs(sim.now().to_seconds());
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(ax[i], q[i], 1e-6) << "row " << i;
    }
    // Voltages decrease monotonically along a dissipative ladder.
    for (int i = 0; i + 1 < n; ++i) {
        EXPECT_GE(net.voltage(nodes[i]) + 1e-9, net.voltage(nodes[i + 1]));
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_ladder, ::testing::Range(0, 12));

// -------------------------------------------------- SDF balance properties

class random_sdf_chain : public ::testing::TestWithParam<int> {};

TEST_P(random_sdf_chain, repetition_vector_satisfies_balance) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31337U + 11U);
    std::uniform_int_distribution<unsigned> rate(1, 6);
    std::uniform_int_distribution<int> len(2, 10);

    const int n = len(rng);
    std::vector<tdf::rate_edge> edges;
    for (int i = 0; i + 1 < n; ++i) {
        edges.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1),
                         rate(rng), rate(rng)});
    }
    const auto reps = tdf::repetition_vector(static_cast<std::size_t>(n), edges);
    for (const auto& e : edges) {
        EXPECT_EQ(reps[e.from] * e.out_rate, reps[e.to] * e.in_rate);
    }
    // Minimality: the gcd of all repetitions is 1.
    std::uint64_t g = 0;
    for (auto r : reps) g = std::gcd(g, r);
    EXPECT_EQ(g, 1U);
}

INSTANTIATE_TEST_SUITE_P(seeds, random_sdf_chain, ::testing::Range(0, 20));

namespace {

struct rate_producer : tdf::module {
    tdf::out<double> out;
    double step_us;
    rate_producer(const de::module_name& nm, unsigned rate, double step = 1.0)
        : tdf::module(nm), out("out"), step_us(step) {
        out.set_rate(rate);
    }
    void set_attributes() override { set_timestep(step_us, de::time_unit::us); }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) {
            out.write(static_cast<double>(out.position() + k), k);
        }
    }
};

struct rate_consumer : tdf::module {
    tdf::in<double> in;
    std::vector<double> got;
    rate_consumer(const de::module_name& nm, unsigned rate) : tdf::module(nm), in("in") {
        in.set_rate(rate);
    }
    void processing() override {
        for (unsigned k = 0; k < in.rate(); ++k) got.push_back(in.read(k));
    }
};

}  // namespace

class random_rate_pair : public ::testing::TestWithParam<int> {};

TEST_P(random_rate_pair, token_stream_is_lossless_and_ordered) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729U + 17U);
    std::uniform_int_distribution<unsigned> rate(1, 5);

    de::simulation_context sim;
    rate_producer src("src", rate(rng));
    rate_consumer dst("dst", rate(rng));
    tdf::signal<double> s("s");
    src.out.bind(s);
    dst.in.bind(s);

    sim.run(40_us);
    ASSERT_GE(dst.got.size(), 10U);
    for (std::size_t i = 0; i < dst.got.size(); ++i) {
        EXPECT_DOUBLE_EQ(dst.got[i], static_cast<double>(i)) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_rate_pair, ::testing::Range(0, 15));

class random_rate_delay_pair : public ::testing::TestWithParam<int> {};

TEST_P(random_rate_delay_pair, reader_sees_exactly_the_scheduled_token_count) {
    // Oracle: the minimal repetitions satisfy q_src * r_out = q_dst * r_in,
    // and the producer fires every 60 us (every rate divides 60, so every
    // module and sample period is a whole us), so the cluster period is
    // P = 60 * q_src us.  A run of T executes the periods at t = 0, P, 2P,
    // ... <= T, and the reader takes q_dst * r_in tokens in each: the first
    // `delay` are the delay tokens (0.0), the rest the producer's stream
    // from 0.  Batched execution must not run a period past T.
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7727U + 5U);
    std::uniform_int_distribution<unsigned> rate(1, 5);
    std::uniform_int_distribution<unsigned> delay_of(0, 4);
    std::uniform_int_distribution<unsigned> run_us(1, 9000);
    const unsigned r_out = rate(rng), r_in = rate(rng), delay = delay_of(rng);
    const unsigned t_us = run_us(rng);
    const unsigned g = std::gcd(r_out, r_in);
    const unsigned q_src = r_in / g, q_dst = r_out / g;
    const unsigned period_us = 60 * q_src;
    const std::size_t expected =
        static_cast<std::size_t>(t_us / period_us + 1) * q_dst * r_in;

    for (const std::uint64_t max_batch : {std::uint64_t{1}, std::uint64_t{64}}) {
        de::simulation_context sim;
        tdf::registry::of(sim).set_default_max_batch_periods(max_batch);
        rate_producer src("src", r_out, 60.0);
        rate_consumer dst("dst", r_in);
        dst.in.set_delay(delay);
        tdf::signal<double> s("s");
        src.out.bind(s);
        dst.in.bind(s);
        sim.run(de::time(static_cast<double>(t_us), de::time_unit::us));
        ASSERT_EQ(src.repetitions(), q_src);
        ASSERT_EQ(dst.repetitions(), q_dst);
        ASSERT_EQ(dst.got.size(), expected)
            << "rates " << r_out << ":" << r_in << ", delay " << delay << ", T " << t_us
            << " us, max batch " << max_batch;
        for (std::size_t i = 0; i < dst.got.size(); ++i) {
            const double want = i < delay ? 0.0 : static_cast<double>(i - delay);
            ASSERT_EQ(dst.got[i], want) << i << ", max batch " << max_batch;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_rate_delay_pair, ::testing::Range(0, 24));

// ------------------------------------------------ filter stability property

class random_stable_filter : public ::testing::TestWithParam<int> {};

TEST_P(random_stable_filter, bounded_response_and_dc_gain) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 65537U + 29U);
    std::uniform_real_distribution<double> re(-50e3, -500.0);
    std::uniform_real_distribution<double> im(1e3, 30e3);
    std::uniform_int_distribution<int> pairs(1, 2);

    std::vector<std::complex<double>> poles;
    const int np = pairs(rng);
    for (int i = 0; i < np; ++i) {
        const std::complex<double> p(re(rng), im(rng));
        poles.push_back(p);
        poles.push_back(std::conj(p));
    }
    auto den = lsf::poly_from_roots(poles);
    const std::vector<double> num{den[0]};  // unity DC gain

    de::simulation_context sim;
    lsf::system sys("sys");
    sys.set_timestep(1.0, de::time_unit::us);
    auto u = sys.create_signal("u");
    auto y = sys.create_signal("y");
    lsf::source src("src", sys, u, lsf::waveform::dc(1.0));
    lsf::ltf_nd f("f", sys, u, y, num, den);

    sim.run(5_ms);
    // Stable filter: settles to the DC gain without blowing up.
    EXPECT_NEAR(sys.value(y), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(seeds, random_stable_filter, ::testing::Range(0, 15));

// ---------------------------------------------- stiff solver never explodes

class random_stiff_system : public ::testing::TestWithParam<int> {};

TEST_P(random_stiff_system, backward_euler_remains_bounded) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 2654435761U + 41U);
    std::uniform_real_distribution<double> log_tau(-9.0, -3.0);

    solver::equation_system sys;
    const int n = 4;
    for (int i = 0; i < n; ++i) {
        const std::size_t r = sys.add_unknown("x" + std::to_string(i));
        const double tau = std::pow(10.0, log_tau(rng));
        sys.add_a(r, r, 1.0 / tau);
        sys.add_b(r, r, 1.0);
        // Weak random coupling to the next state keeps the system stable
        // (diagonally dominant) while making it non-trivial.
        if (i > 0) sys.add_a(r, r - 1, 0.1 / tau);
    }
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-5);
    s.set_initial_state(std::vector<double>(n, 1.0), 0.0);
    s.advance_to(1e-2);
    for (double v : s.x()) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_LT(std::abs(v), 2.0);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, random_stiff_system, ::testing::Range(0, 15));

// ----------------------------------------- passive network energy property

class random_rc_energy : public ::testing::TestWithParam<int> {};

TEST_P(random_rc_energy, discharge_is_monotonic_without_sources) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 48271U + 53U);
    std::uniform_real_distribution<double> res(1e3, 50e3);
    std::uniform_real_distribution<double> cap(1e-9, 100e-9);

    // A charged capacitor discharging through a random resistor mesh must
    // decay monotonically (passivity: no energy creation).
    de::simulation_context sim;
    sca::util::object_bag bag;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    // Charge via a source that switches off after 10 us.
    bag.make<eln::isource>("chg", net, gnd, a,
                     eln::waveform::pulse(1e-3, 0.0, 10e-6, 1e-9, 1e-9, 1.0, 2.0));
    bag.make<eln::capacitor>("c1", net, a, gnd, cap(rng));
    bag.make<eln::resistor>("r1", net, a, b, res(rng));
    bag.make<eln::resistor>("r2", net, b, gnd, res(rng));

    sim.run(10_us);
    double prev = net.voltage(a);
    bool decayed = false;
    for (int i = 0; i < 100; ++i) {
        sim.run(5_us);
        const double now = net.voltage(a);
        EXPECT_LE(now, prev + 1e-9);
        if (now < prev) decayed = true;
        prev = now;
    }
    EXPECT_TRUE(decayed);
}

INSTANTIATE_TEST_SUITE_P(seeds, random_rc_energy, ::testing::Range(0, 10));
