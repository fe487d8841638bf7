// Continuous-time solver tests: linear DAE integration accuracy and
// stability, DC operating point, nonlinear Newton, adaptive stepping, and
// the external (RK4) engine.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "solver/dc.hpp"
#include "solver/equation_system.hpp"
#include "solver/external.hpp"
#include "solver/linear_dae.hpp"
#include "solver/nonlinear_dae.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace solver = sca::solver;

namespace {

/// dx/dt = -x / tau  =>  (1/tau) x + dx/dt = 0.
solver::equation_system decay_system(double tau) {
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    sys.add_a(x, x, 1.0 / tau);
    sys.add_b(x, x, 1.0);
    return sys;
}

/// Stamps an RC ladder of `n` nodes, fed by a 10 mA source with a 100 ohm
/// shunt at node 0, with a switch conductance from the last node to ground:
/// a stamp slot (its handle stored in `*slot`) or, with a null `slot`, a
/// plain stamp.
void stamp_switched_ladder(solver::equation_system& sys, std::size_t n, double g_switch,
                           solver::stamp_handle* slot) {
    const double g = 1e-2;
    sys.add_a(0, 0, g);
    sys.add_rhs_constant(0, 1e-2);
    for (std::size_t k = 0; k + 1 < n; ++k) {
        sys.add_a(k, k, g);
        sys.add_a(k, k + 1, -g);
        sys.add_a(k + 1, k, -g);
        sys.add_a(k + 1, k + 1, g);
    }
    for (std::size_t k = 0; k < n; ++k) sys.add_b(k, k, 1e-6);
    if (slot != nullptr) {
        *slot = sys.add_stamp(g_switch);
        sys.stamp_a(*slot, n - 1, n - 1, 1.0);
    } else {
        sys.add_a(n - 1, n - 1, g_switch);
    }
}

solver::equation_system switched_ladder(std::size_t n, double g_switch,
                                        solver::stamp_handle* slot) {
    solver::equation_system sys;
    for (std::size_t k = 0; k < n; ++k) (void)sys.add_unknown("v" + std::to_string(k));
    stamp_switched_ladder(sys, n, g_switch, slot);
    return sys;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

}  // namespace

TEST(equation_system, rhs_combines_constants_sources_inputs) {
    solver::equation_system sys;
    const std::size_t r = sys.add_unknown("x");
    sys.add_rhs_constant(r, 1.0);
    sys.add_rhs_source(r, [](double t) { return 2.0 * t; });
    const std::size_t slot = sys.add_input(r);
    sys.set_input(slot, 4.0);
    const auto q = sys.rhs(3.0);
    EXPECT_DOUBLE_EQ(q[0], 1.0 + 6.0 + 4.0);
}

TEST(equation_system, clear_stamps_keeps_unknowns) {
    solver::equation_system sys;
    (void)sys.add_unknown("a");
    sys.add_a(0, 0, 5.0);
    const auto gen = sys.stamp_generation();
    sys.clear_stamps();
    EXPECT_EQ(sys.size(), 1U);
    EXPECT_DOUBLE_EQ(sys.a().get(0, 0), 0.0);
    EXPECT_GT(sys.stamp_generation(), gen);
}

TEST(linear_dae, backward_euler_decays_to_analytic) {
    auto sys = decay_system(1e-3);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(1e-3);
    EXPECT_NEAR(s.x()[0], std::exp(-1.0), 2e-3);
}

TEST(linear_dae, trapezoidal_is_second_order) {
    // Global error should shrink ~4x when h halves.
    auto run = [](double h) {
        auto sys = decay_system(1e-3);
        solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal, h);
        s.set_initial_state({1.0}, 0.0);
        s.advance_to(1e-3);
        return std::abs(s.x()[0] - std::exp(-1.0));
    };
    const double e1 = run(4e-6);
    const double e2 = run(2e-6);
    EXPECT_GT(e1 / e2, 3.0);
    EXPECT_LT(e1 / e2, 5.0);
}

TEST(linear_dae, backward_euler_is_first_order) {
    auto run = [](double h) {
        auto sys = decay_system(1e-3);
        solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, h);
        s.set_initial_state({1.0}, 0.0);
        s.advance_to(1e-3);
        return std::abs(s.x()[0] - std::exp(-1.0));
    };
    const double e1 = run(4e-6);
    const double e2 = run(2e-6);
    EXPECT_GT(e1 / e2, 1.7);
    EXPECT_LT(e1 / e2, 2.3);
}

TEST(linear_dae, backward_euler_stable_on_stiff_system) {
    // Fast mode tau = 1 ns, step = 1 us >> tau: BE must remain stable.
    auto sys = decay_system(1e-9);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(1e-4);
    EXPECT_LT(std::abs(s.x()[0]), 1e-6);
}

TEST(linear_dae, factorization_is_reused) {
    auto sys = decay_system(1e-3);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(1e-4);
    EXPECT_EQ(s.factor_count(), 1U);
    EXPECT_EQ(s.solve_count(), 100U);
}

TEST(linear_dae, restamp_triggers_refactor) {
    auto sys = decay_system(1e-3);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({1.0}, 0.0);
    s.step();
    sys.clear_stamps();
    sys.add_a(0, 0, 1.0 / 2e-3);
    sys.add_b(0, 0, 1.0);
    s.step();
    EXPECT_EQ(s.factor_count(), 2U);
    // clear_stamps is the pattern-level path: symbolic analysis re-runs.
    EXPECT_EQ(s.symbolic_factor_count(), 2U);
}

TEST(linear_dae, stamp_slot_update_refactors_numerically_only) {
    // dx/dt = -x/tau with tau driven through a stamp slot: updating the slot
    // must cost one numeric refactor and zero symbolic analyses.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const auto g = sys.add_stamp(1.0 / 1e-3);
    sys.stamp_a(g, x, x, 1.0);
    sys.add_b(x, x, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(1e-4);
    EXPECT_EQ(s.factor_count(), 1U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);

    sys.set_stamp(g, 1.0 / 2e-3);  // values-only: pattern untouched
    s.advance_to(2e-4);
    EXPECT_EQ(s.factor_count(), 2U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);
    EXPECT_EQ(s.solve_count(), 200U);
}

TEST(equation_system, stamp_slot_added_after_finalize_is_usable) {
    // finalize_stamps() indexes slot -> entries; a slot allocated (and
    // referenced) afterwards must re-index instead of indexing out of range.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const auto g1 = sys.add_stamp(2.0);
    sys.stamp_a(g1, x, x, 1.0);
    sys.finalize_stamps();
    const auto g2 = sys.add_stamp(3.0);
    sys.stamp_a(g2, x, x, 1.0);
    EXPECT_DOUBLE_EQ(sys.a().get(x, x), 5.0);
    sys.set_stamp(g2, 4.0);
    EXPECT_DOUBLE_EQ(sys.a().get(x, x), 6.0);
    sys.set_stamp(g1, 1.0);
    EXPECT_DOUBLE_EQ(sys.a().get(x, x), 5.0);
}

TEST(equation_system, static_adds_interleaved_with_slots_replay_in_order) {
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    sys.add_a(x, x, 10.0);            // static prefix
    const auto g = sys.add_stamp(1.0);
    sys.stamp_a(g, x, x, 2.0);        // + 2*g
    sys.add_a(x, x, 0.5);             // static suffix on a dynamic entry
    EXPECT_DOUBLE_EQ(sys.a().get(x, x), 12.5);
    sys.set_stamp(g, 3.0);
    EXPECT_DOUBLE_EQ(sys.a().get(x, x), 16.5);
}

TEST(equation_system, new_entry_after_finalize_moves_compiled_positions) {
    // finalize_stamps compiles where each slot-dependent entry's value is
    // stored; a new entry inserted before it in the same row shifts that
    // position, so set_stamp must recompile instead of writing the old one.
    solver::equation_system sys;
    for (const char* name : {"x", "y", "z"}) (void)sys.add_unknown(name);
    sys.add_a(0, 0, 1.0);
    const auto g = sys.add_stamp(2.0);
    sys.stamp_a(g, 0, 2, 1.0);
    sys.stamp_b(g, 1, 1, 3.0);
    sys.finalize_stamps();
    sys.set_stamp(g, 3.0);
    EXPECT_DOUBLE_EQ(sys.a().get(0, 2), 3.0);
    EXPECT_DOUBLE_EQ(sys.b().get(1, 1), 9.0);

    sys.add_a(0, 1, 5.0);  // (0, 1) lands between (0, 0) and (0, 2)
    sys.add_b(1, 0, 7.0);  // (1, 0) lands before (1, 1)
    sys.set_stamp(g, 4.0);
    EXPECT_DOUBLE_EQ(sys.a().get(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(sys.a().get(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(sys.a().get(0, 2), 4.0);
    EXPECT_DOUBLE_EQ(sys.b().get(1, 0), 7.0);
    EXPECT_DOUBLE_EQ(sys.b().get(1, 1), 12.0);
}

TEST(linear_dae, timestep_change_refactors_numerically_only) {
    auto sys = decay_system(1e-3);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({1.0}, 0.0);
    s.step();
    s.set_timestep(2e-6);
    s.step();
    EXPECT_EQ(s.factor_count(), 2U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);
}

TEST(linear_dae, slot_update_matches_full_restamp_bit_for_bit) {
    // The same switched-decay transient twice: once through stamp-slot
    // updates (numeric refactor), once through clear_stamps + full restamp
    // (fresh symbolic). Waveforms must match exactly, not approximately.
    const double tau_a = 1e-3, tau_b = 2.5e-4;

    solver::equation_system sys_inc;
    const std::size_t xi = sys_inc.add_unknown("x");
    const auto slot = sys_inc.add_stamp(1.0 / tau_a);
    sys_inc.stamp_a(slot, xi, xi, 1.0);
    sys_inc.add_b(xi, xi, 1.0);
    solver::linear_dae_solver inc(sys_inc, solver::integration_method::backward_euler,
                                  1e-6);
    inc.set_initial_state({1.0}, 0.0);

    solver::equation_system sys_full;
    const std::size_t xf = sys_full.add_unknown("x");
    sys_full.add_a(xf, xf, 1.0 / tau_a);
    sys_full.add_b(xf, xf, 1.0);
    solver::linear_dae_solver full(sys_full, solver::integration_method::backward_euler,
                                   1e-6);
    full.set_initial_state({1.0}, 0.0);

    double tau = tau_a;
    for (int seg = 0; seg < 6; ++seg) {
        tau = seg % 2 == 0 ? tau_b : tau_a;
        sys_inc.set_stamp(slot, 1.0 / tau);
        sys_full.clear_stamps();
        sys_full.add_a(xf, xf, 1.0 / tau);
        sys_full.add_b(xf, xf, 1.0);
        for (int i = 0; i < 50; ++i) {
            inc.step();
            full.step();
            ASSERT_EQ(inc.x()[0], full.x()[0]) << "diverged in segment " << seg;
        }
    }
    EXPECT_EQ(inc.symbolic_factor_count(), 1U);
    EXPECT_GE(full.symbolic_factor_count(), 6U);
}

TEST(linear_dae, factor_cache_thrash_matches_full_restamp_bit_for_bit) {
    // One slot cycles through more distinct values than the factor cache
    // holds, each change followed by the forced BE step, so a state is
    // (value x method): the cache both hits (value 0 comes back after every
    // other value) and evicts.  The reference restamps from scratch before
    // every step, so it factors every step symbolically and never reuses a
    // cached factorization.  A key without the method would hand the
    // trapezoidal step the BE factors.
    constexpr std::size_t n = 3;
    std::vector<double> values;
    for (int k = 0; k < 12; ++k) values.push_back(1e-3 * (k + 1));
    ASSERT_GT(values.size(), solver::linear_dae_solver::factor_cache_entries);

    solver::stamp_handle slot = solver::no_stamp_handle;
    auto sys_inc = switched_ladder(n, values[0], &slot);
    auto sys_full = switched_ladder(n, values[0], nullptr);
    solver::linear_dae_solver inc(sys_inc, solver::integration_method::trapezoidal, 1e-6);
    solver::linear_dae_solver full(sys_full, solver::integration_method::trapezoidal, 1e-6);
    inc.set_initial_state(std::vector<double>(n, 0.0), 0.0);
    full.set_initial_state(std::vector<double>(n, 0.0), 0.0);

    std::vector<std::size_t> order;
    for (int round = 0; round < 3; ++round) {
        for (std::size_t k = 1; k < values.size(); ++k) {
            order.push_back(k);
            order.push_back(0);
        }
    }
    for (std::size_t change = 0; change < order.size(); ++change) {
        const double v = values[order[change]];
        sys_inc.set_stamp(slot, v);
        inc.restart();
        full.restart();
        for (int i = 0; i < 3; ++i) {
            sys_full.clear_stamps();
            stamp_switched_ladder(sys_full, n, v, nullptr);
            inc.step();
            full.step();
            ASSERT_TRUE(same_bits(inc.x(), full.x()))
                << "diverged at step " << i << " after change " << change;
        }
    }
    EXPECT_EQ(full.symbolic_factor_count(), 3 * order.size());
    EXPECT_EQ(inc.symbolic_factor_count(), 1U);
    // Hits: fewer passes than the two states each change visits ...
    EXPECT_LT(inc.factor_count(), 2 * order.size());
    // ... and evictions: more passes than there are distinct states.
    EXPECT_GT(inc.factor_count(), 2 * values.size());
}

TEST(linear_dae, revisited_state_reuses_cached_factors) {
    // A switch toggling between two positions visits four states (position
    // x BE/trapezoidal); once each has been factored, no toggle refactors.
    // The same holds for a timestep that changes and comes back.
    solver::stamp_handle slot = solver::no_stamp_handle;
    auto sys = switched_ladder(3, 1e-6, &slot);
    solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal, 1e-6);
    s.set_initial_state(std::vector<double>(3, 0.0), 0.0);
    s.step();  // (open, trapezoidal)
    const auto toggle = [&](double g) {
        sys.set_stamp(slot, g);
        s.restart();
        for (int i = 0; i < 4; ++i) s.step();
    };
    toggle(20.0);  // (closed, BE), (closed, trapezoidal)
    toggle(1e-6);  // (open, BE)
    EXPECT_EQ(s.factor_count(), 4U);
    for (int i = 0; i < 10; ++i) {
        toggle(20.0);
        toggle(1e-6);
    }
    EXPECT_EQ(s.factor_count(), 4U);

    s.set_timestep(2e-6);
    s.step();
    EXPECT_EQ(s.factor_count(), 5U);
    s.set_timestep(1e-6);
    s.step();
    EXPECT_EQ(s.factor_count(), 5U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);
    EXPECT_EQ(s.solve_count(), 1U + 20U * 4U + 2U + 2U * 4U);
}

TEST(linear_dae, refused_refactor_empties_the_factor_cache) {
    // A = [[g, 1], [1, 2]], no dynamics, BE.  At g = 1 the first analysis
    // keeps the diagonal pivot.  At g = 1e-14 that frozen pivot vanishes
    // against its U row, refactor refuses and a new analysis swaps the rows.
    // Back at g = 1 the matrix bits equal the first state's, but its cached
    // factors belong to the old pivot order: the visit must refactor.
    solver::equation_system sys;
    (void)sys.add_unknown("x");
    (void)sys.add_unknown("y");
    const auto g = sys.add_stamp(1.0);
    sys.stamp_a(g, 0, 0, 1.0);
    sys.add_a(0, 1, 1.0);
    sys.add_a(1, 0, 1.0);
    sys.add_a(1, 1, 2.0);
    sys.add_rhs_constant(0, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    s.step();
    EXPECT_EQ(s.factor_count(), 1U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);

    sys.set_stamp(g, 1e-14);
    s.step();
    EXPECT_EQ(s.factor_count(), 2U);
    EXPECT_EQ(s.symbolic_factor_count(), 2U);

    sys.set_stamp(g, 1.0);
    s.step();
    EXPECT_EQ(s.factor_count(), 3U);
    EXPECT_EQ(s.symbolic_factor_count(), 2U);
    // [[1, 1], [1, 2]] x = [1, 0]
    EXPECT_NEAR(s.x()[0], 2.0, 1e-12);
    EXPECT_NEAR(s.x()[1], -1.0, 1e-12);
}

TEST(linear_dae, frozen_pivot_that_grows_the_factors_falls_back_to_a_fresh_analysis) {
    // A = [[a, 1], [1, 2]] with a a stamp slot, q = (1, 3), no dynamics, BE.
    // At a = 1 the analysis keeps the diagonal pivot.  At a = 1e-10 that
    // pivot passes the degenerate-pivot check, but eliminating through it
    // grows U to ~1e10 and costs ~8e-8 of accuracy: the growth check must
    // refuse the refactor, and the fresh analysis solves exactly.
    solver::equation_system sys;
    (void)sys.add_unknown("x");
    (void)sys.add_unknown("y");
    const auto a = sys.add_stamp(1.0);
    sys.stamp_a(a, 0, 0, 1.0);
    sys.add_a(0, 1, 1.0);
    sys.add_a(1, 0, 1.0);
    sys.add_a(1, 1, 2.0);
    sys.add_rhs_constant(0, 1.0);
    sys.add_rhs_constant(1, 3.0);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    s.step();
    EXPECT_EQ(s.symbolic_factor_count(), 1U);

    const double small = 1e-10;
    sys.set_stamp(a, small);
    s.step();
    EXPECT_EQ(s.refactor_fallback_count(), 1U);
    EXPECT_EQ(s.symbolic_factor_count(), 2U);
    const double x0 = 1.0 / (1.0 - 2.0 * small);
    const double x1 = (3.0 - x0) / 2.0;
    const double eps = std::numeric_limits<double>::epsilon();
    EXPECT_NEAR(s.x()[0], x0, 4 * eps * x0);
    EXPECT_NEAR(s.x()[1], x1, 4 * eps * x1);
}

TEST(linear_dae, factor_cache_misses_after_a_restamp_of_a_non_slot_value) {
    // The cache key is the slot values, the method and h: they decide the
    // iteration matrix only under one stamp generation.  A restamp that
    // changes a static value under the same slot values must empty the
    // cache, so the solver matches one started on the new stamps.
    const auto stamp = [](solver::equation_system& sys, double g_static) {
        const auto g = sys.add_stamp(20.0);
        sys.stamp_a(g, 0, 0, 1.0);
        sys.add_a(0, 0, g_static);
        sys.add_a(0, 1, -1e-2);
        sys.add_a(1, 0, -1e-2);
        sys.add_a(1, 1, 2e-2);
        sys.add_b(0, 0, 1e-6);
        sys.add_b(1, 1, 1e-6);
        sys.add_rhs_constant(0, 1e-2);
        return g;
    };
    const auto fresh = [] {
        solver::equation_system sys;
        (void)sys.add_unknown("x");
        (void)sys.add_unknown("y");
        return sys;
    };
    auto sys = fresh();
    auto g = stamp(sys, 1e-2);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    for (const double v : {20.0, 1e-6, 20.0}) {  // caches both switch states
        sys.set_stamp(g, v);
        s.step();
    }
    ASSERT_EQ(s.factor_count(), 2U);

    sys.clear_stamps();
    g = stamp(sys, 5e-2);  // slot back at 20: the same key as before
    auto ref_sys = fresh();
    const auto ref_g = stamp(ref_sys, 5e-2);
    solver::linear_dae_solver ref(ref_sys, solver::integration_method::backward_euler, 1e-6);
    ref.set_initial_state(s.x(), s.time());
    for (const double v : {20.0, 1e-6}) {
        sys.set_stamp(g, v);
        ref_sys.set_stamp(ref_g, v);
        s.step();
        ref.step();
        ASSERT_TRUE(same_bits(s.x(), ref.x())) << "g = " << v;
    }
    EXPECT_EQ(s.factor_count(), 4U);
    EXPECT_EQ(s.symbolic_factor_count(), 2U);
}

TEST(linear_dae, factors_over_the_byte_budget_refactor_on_every_revisit) {
    constexpr std::size_t n = 2500;
    solver::stamp_handle slot = solver::no_stamp_handle;
    auto sys = switched_ladder(n, 1e-6, &slot);
    // A lower bound on one cached factorization: at least as many L/U
    // values as A has entries, and the pivots.
    ASSERT_GT(sizeof(double) * (sys.a().nonzeros() + n),
              solver::linear_dae_solver::factor_cache_bytes);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state(std::vector<double>(n, 0.0), 0.0);
    s.step();
    for (int i = 0; i < 6; ++i) {
        const auto before = s.factor_count();
        sys.set_stamp(slot, i % 2 == 0 ? 20.0 : 1e-6);
        s.step();
        EXPECT_EQ(s.factor_count(), before + 1) << "toggle " << i;
    }
    EXPECT_EQ(s.symbolic_factor_count(), 1U);
}

TEST(linear_dae, cached_views_follow_every_change) {
    // A step reads the CSR arrays of A and B taken at the last validation
    // without asking the matrices.  One solver steps across every change the
    // system and the solver can make; after each, its steps must equal,
    // bit for bit, those of a fresh solver built on the changed system.  A
    // stale array reads freed memory under ASan (the restamp reallocates).
    constexpr std::size_t n = 4;
    constexpr auto trap = solver::integration_method::trapezoidal;
    solver::stamp_handle slot = solver::no_stamp_handle;
    auto sys = switched_ladder(n, 1e-3, &slot);
    solver::linear_dae_solver run(sys, trap, 1e-6);
    run.set_initial_state(std::vector<double>(n, 0.0), 0.0);
    for (int i = 0; i < 5; ++i) run.step();

    const auto steps_match_a_fresh_solver = [&](const std::string& change) {
        solver::linear_dae_solver fresh(sys, trap, run.timestep());
        fresh.set_initial_state(run.x(), run.time());
        for (int i = 0; i < 5; ++i) {
            run.step();
            fresh.step();
            ASSERT_TRUE(same_bits(run.x(), fresh.x())) << change << ", step " << i;
        }
    };

    sys.set_stamp(slot, 5e-3);
    steps_match_a_fresh_solver("set_stamp");

    const auto a_values_at = [&] {
        return reinterpret_cast<std::uintptr_t>(sys.a().values().data());
    };
    const std::uintptr_t a_values_before = a_values_at();
    sys.clear_stamps();
    stamp_switched_ladder(sys, n, 2e-3, &slot);
    sys.add_a(0, n - 1, 1e-4);  // an entry the old pattern lacks
    ASSERT_NE(a_values_at(), a_values_before);
    steps_match_a_fresh_solver("clear_stamps + restamp with a new A entry");
    EXPECT_EQ(run.symbolic_factor_count(), 2U);

    run.set_timestep(2e-6);
    steps_match_a_fresh_solver("set_timestep");

    sca::util::byte_writer w;
    sys.save_state(w);
    run.save_state(w);
    const std::vector<double> saved_x = run.x();
    sys.set_stamp(slot, 7e-3);
    for (int i = 0; i < 3; ++i) run.step();
    sca::util::byte_reader r(w.bytes());
    sys.restore_state(r);
    run.restore_state(r);
    ASSERT_TRUE(same_bits(run.x(), saved_x));
    steps_match_a_fresh_solver("save_state/restore_state round trip");
}

TEST(linear_dae, forced_oscillator_tracks_input) {
    // x' = w (y),  y' = -w x + forcing: second-order resonance integrated as
    // a 2x2 linear DAE; checks multi-unknown assembly.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const std::size_t y = sys.add_unknown("y");
    const double w = 2.0 * 3.141592653589793 * 1000.0;
    // dx/dt - w y = 0 ; dy/dt + w x = 0; start at (1, 0): circular motion.
    sys.add_b(x, x, 1.0);
    sys.add_a(x, y, -w);
    sys.add_b(y, y, 1.0);
    sys.add_a(y, x, w);
    solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal, 1e-7);
    s.set_initial_state({1.0, 0.0}, 0.0);
    s.advance_to(1e-3);  // one full period
    EXPECT_NEAR(s.x()[0], 1.0, 1e-3);
    EXPECT_NEAR(s.x()[1], 0.0, 2e-3);
}

// -------------------------------------------------------------------- DC ---

TEST(dc, linear_divider) {
    // Unknown v: (1/r1 + 1/r2) v = vs / r1  (divider collapsed to one node).
    solver::equation_system sys;
    const std::size_t v = sys.add_unknown("v");
    sys.add_a(v, v, 1.0 / 1000.0 + 1.0 / 3000.0);
    sys.add_rhs_constant(v, 2.0 / 1000.0);
    const auto x = solver::dc_solve(sys, 0.0);
    EXPECT_NEAR(x[0], 1.5, 1e-12);
}

TEST(dc, singular_a_uses_pseudo_transient) {
    sca::util::clear_reports();
    // Pure capacitor node: A = 0, B = C. DC must come out 0 with a warning.
    solver::equation_system sys;
    const std::size_t v = sys.add_unknown("v");
    sys.add_b(v, v, 1e-9);
    const auto x = solver::dc_solve(sys, 0.0);
    EXPECT_NEAR(x[0], 0.0, 1e-9);
    EXPECT_FALSE(sca::util::warnings().empty());
}

TEST(dc, nonlinear_diode_clamp) {
    // g v + i_d(v) = i_in with a diode-like exponential: Newton converges to
    // a forward voltage near 0.6-0.8 V.
    solver::equation_system sys;
    const std::size_t v = sys.add_unknown("v");
    sys.add_a(v, v, 1e-3);
    sys.add_rhs_constant(v, 10e-3);
    sys.add_nonlinear([v](const std::vector<double>& x, std::vector<double>& r,
                          std::vector<solver::jacobian_entry>& j) {
        const double vt = 0.025852;
        const double is = 1e-14;
        const double vd = std::min(x[v], 1.5);
        const double e = std::exp(vd / vt);
        r[v] += is * (e - 1.0);
        j.push_back({v, v, is * e / vt});
    });
    const auto x = solver::dc_solve(sys, 0.0);
    EXPECT_GT(x[0], 0.5);
    EXPECT_LT(x[0], 0.9);
}

// -------------------------------------------------------------- nonlinear --

TEST(nonlinear_dae, matches_linear_solver_on_linear_problem) {
    // h_max = h_init: the error control can only hold the step or shrink it.
    auto sys = decay_system(1e-3);
    solver::nonlinear_options opt;
    opt.h_init = 1e-6;
    opt.h_max = 1e-6;
    solver::nonlinear_dae_solver s(sys, opt);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(1e-3);
    EXPECT_NEAR(s.x()[0], std::exp(-1.0), 2e-3);
}

TEST(nonlinear_dae, cubic_damping_converges) {
    // dx/dt = -x^3, x(0)=1: analytic x(t) = 1/sqrt(1+2t).
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    sys.add_b(x, x, 1.0);
    sys.add_nonlinear([x](const std::vector<double>& xi, std::vector<double>& r,
                          std::vector<solver::jacobian_entry>& j) {
        r[x] += xi[x] * xi[x] * xi[x];
        j.push_back({x, x, 3.0 * xi[x] * xi[x]});
    });
    solver::nonlinear_options opt;
    opt.h_init = 1e-3;
    opt.h_max = 0.05;
    opt.lte_reltol = 1e-5;
    solver::nonlinear_dae_solver s(sys, opt);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(4.0);
    EXPECT_NEAR(s.x()[0], 1.0 / std::sqrt(9.0), 1e-3);
    EXPECT_GT(s.steps_accepted(), 10U);
}

TEST(nonlinear_dae, adaptive_uses_fewer_steps_than_fixed) {
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    sys.add_b(x, x, 1.0);
    sys.add_a(x, x, 1.0 / 1e-4);  // tau = 100 us decay, then flat
    solver::nonlinear_options opt;
    opt.h_init = 1e-6;
    opt.h_max = 1e-2;
    solver::nonlinear_dae_solver s(sys, opt);
    s.set_initial_state({1.0}, 0.0);
    const double t_end = 0.01;
    s.advance_to(t_end);

    // A fixed step of h_init takes t_end / h_init = 10^4 steps.
    EXPECT_LT(static_cast<double>(s.steps_accepted()) * 10.0, t_end / opt.h_init);
    EXPECT_NEAR(s.x()[0], 0.0, 1e-4);
}

TEST(nonlinear_dae, reports_newton_statistics) {
    auto sys = decay_system(1e-3);
    solver::nonlinear_options opt;
    opt.h_init = 1e-5;
    solver::nonlinear_dae_solver s(sys, opt);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(1e-4);
    EXPECT_GT(s.newton_iterations(), 0U);
    EXPECT_GT(s.factorizations(), 0U);
}

TEST(nonlinear_dae, newton_reuses_symbolic_factorization) {
    // Cubic damping: many Newton iterations over many timesteps, but the
    // Jacobian pattern is fixed, so the symbolic analysis runs only for the
    // first iteration while every iteration pays a numeric refactor.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    sys.add_b(x, x, 1.0);
    sys.add_nonlinear([x](const std::vector<double>& xi, std::vector<double>& r,
                          std::vector<solver::jacobian_entry>& j) {
        r[x] += xi[x] * xi[x] * xi[x];
        j.push_back({x, x, 3.0 * xi[x] * xi[x]});
    });
    solver::nonlinear_options opt;
    opt.h_init = 1e-3;
    opt.h_max = 0.05;
    solver::nonlinear_dae_solver s(sys, opt);
    s.set_initial_state({1.0}, 0.0);
    s.advance_to(2.0);
    EXPECT_GT(s.factorizations(), 20U);
    EXPECT_EQ(s.symbolic_factorizations(), 1U);
}

// --------------------------------------------------------------- external --

TEST(external_rk4, harmonic_oscillator_period) {
    solver::rk4_solver rk;
    const double w = 2.0 * 3.141592653589793;
    rk.configure(2, 0, [w](double, const std::vector<double>& x,
                           const std::vector<double>&, std::vector<double>& dx) {
        dx[0] = x[1];
        dx[1] = -w * w * x[0];
    });
    rk.set_state({1.0, 0.0});
    const double dt = 1e-3;
    for (int i = 0; i < 1000; ++i) rk.advance(i * dt, dt, {});
    EXPECT_NEAR(rk.state()[0], 1.0, 1e-6);  // back after one period
    EXPECT_EQ(rk.rhs_evaluations(), 4000U);
}

TEST(external_rk4, substepping_respects_max_internal_step) {
    solver::rk4_solver rk(1e-4);
    rk.configure(1, 1, [](double, const std::vector<double>& x,
                          const std::vector<double>& u, std::vector<double>& dx) {
        dx[0] = u[0] - x[0];
    });
    rk.set_state({0.0});
    rk.advance(0.0, 1e-3, {1.0});  // 10 internal steps
    EXPECT_EQ(rk.rhs_evaluations(), 40U);
    EXPECT_NEAR(rk.state()[0], 1.0 - std::exp(-1e-3 / 1.0), 1e-6);
}

TEST(external_rk4, rejects_bad_usage) {
    solver::rk4_solver rk;
    EXPECT_THROW(rk.advance(0.0, 1e-3, {}), sca::util::error);
    rk.configure(1, 0, [](double, const std::vector<double>&, const std::vector<double>&,
                          std::vector<double>& dx) { dx[0] = 0.0; });
    EXPECT_THROW(rk.set_state({1.0, 2.0}), sca::util::error);
    EXPECT_THROW(rk.advance(0.0, -1.0, {}), sca::util::error);
}
