// Block-execution equivalence suite (`ctest -L block`): the block path must
// produce BIT-IDENTICAL waveforms to the per-sample path on every topology —
// seeded-random chains and fan-outs with rates 1..8 and delays 0..4,
// multirate up/down pipelines built from the DSP library, feedback loops,
// and batch caps chosen so block runs straddle ring-buffer wrap points — and
// multi-period passes must match per-period execution.  It also pins how
// many periods a pass fuses on each topology (cluster::batch_periods()).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "lib/filters.hpp"
#include "lib/sigma_delta.hpp"
#include "tdf/block.hpp"
#include "tdf/cluster.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace lib = sca::lib;
using namespace sca::de::literals;

namespace {

// ------------------------------------------------------------ test modules
// Every module implements BOTH paths with the same floating-point operation
// order, so waveforms must match bit for bit (EXPECT_EQ, not NEAR).

/// Deterministic source: sample value is a pure function of the token index.
struct idx_source : tdf::module {
    tdf::out<double> out;
    std::uint64_t next = 0;
    de::time step{1.0, de::time_unit::us};

    idx_source(const de::module_name& nm, unsigned rate) : tdf::module(nm), out("out") {
        out.set_rate(rate);
    }
    static double value(std::uint64_t i) {
        return std::sin(1e-3 * static_cast<double>(i)) +
               1.0 / (1.0 + static_cast<double>(i));
    }
    void set_attributes() override { set_timestep(step); }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) out.write(value(next++), k);
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        double* y = blk.out_span(out);
        const std::uint64_t tot = blk.count() * out.rate();
        for (std::uint64_t i = 0; i < tot; ++i) y[i] = value(next++);
    }
};

/// Stateful rate converter: reads `in.rate()` tokens, folds them into a
/// running state, emits `out.rate()` tokens.  The state makes any firing
/// reordering / sample loss visible in the waveform.
struct poly_stage : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    double state = 0.0;

    poly_stage(const de::module_name& nm, unsigned in_rate, unsigned out_rate)
        : tdf::module(nm), in("in"), out("out") {
        in.set_rate(in_rate);
        out.set_rate(out_rate);
    }
    void processing() override {
        double acc = 0.0;
        for (unsigned j = 0; j < in.rate(); ++j) {
            acc += static_cast<double>(j + 1) * in.read(j);
        }
        state = 0.5 * state + acc;
        for (unsigned k = 0; k < out.rate(); ++k) {
            out.write(state + static_cast<double>(k), k);
        }
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        double* y = blk.out_span(out);
        for (std::uint64_t f = 0; f < blk.count(); ++f) {
            const double* xf = x + f * in.rate();
            double acc = 0.0;
            for (unsigned j = 0; j < in.rate(); ++j) {
                acc += static_cast<double>(j + 1) * xf[j];
            }
            state = 0.5 * state + acc;
            double* yf = y + f * out.rate();
            for (unsigned k = 0; k < out.rate(); ++k) {
                yf[k] = state + static_cast<double>(k);
            }
        }
    }
};

/// Waveform capture sink (block-capable, so block runs are captured through
/// span reads and per-sample runs through read()).
struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;

    explicit collector(const de::module_name& nm, unsigned rate = 1)
        : tdf::module(nm), in("in") {
        in.set_rate(rate);
    }
    void processing() override {
        for (unsigned j = 0; j < in.rate(); ++j) samples.push_back(in.read(j));
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        samples.insert(samples.end(), x, x + blk.count() * in.rate());
    }
};

/// Two-input adder with a delayed feedback port: y = a + 0.5 fb.
struct fb_adder : tdf::module {
    tdf::in<double> a;
    tdf::in<double> fb;
    tdf::out<double> out;

    explicit fb_adder(const de::module_name& nm)
        : tdf::module(nm), a("a"), fb("fb"), out("out") {}
    void processing() override { out.write(a.read() + 0.5 * fb.read()); }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* xa = blk.in_span(a);
        const double* xf = blk.in_span(fb);
        double* y = blk.out_span(out);
        for (std::uint64_t i = 0; i < blk.count(); ++i) y[i] = xa[i] + 0.5 * xf[i];
    }
};

// -------------------------------------------------------- topology harness

/// Owning random graph plus its capture points.
struct graph {
    // shared_ptr<void> erases the concrete type (de::module's dtor is
    // protected) while still destroying through the right type.
    std::vector<std::shared_ptr<void>> mods;
    std::vector<std::unique_ptr<tdf::signal<double>>> sigs;
    std::vector<collector*> sinks;

    tdf::signal<double>& wire(const std::string& nm) {
        sigs.push_back(std::make_unique<tdf::signal<double>>(nm));
        return *sigs.back();
    }
    template <typename M, typename... A>
    M& add(A&&... args) {
        auto m = std::make_shared<M>(std::forward<A>(args)...);
        M& ref = *m;
        mods.push_back(std::move(m));
        return ref;
    }
};

/// Derive exactly-divisible timing from the graph's repetition vector: the
/// cluster period is lcm(reps) picoseconds-ish, so every module timestep is
/// an integer femtosecond count.  Returns a run duration covering an odd,
/// non-power-of-two period count plus a fraction (forces a final batch
/// shorter than a full pass).
de::time setup_timing(idx_source& src, std::size_t n_mods,
                      const std::vector<tdf::rate_edge>& edges) {
    const auto reps = tdf::repetition_vector(n_mods, edges);
    std::uint64_t l = 1;
    for (const auto r : reps) l = std::lcm(l, r);
    const std::uint64_t period_fs = l * 1000;
    src.step = de::time::from_fs(static_cast<std::int64_t>(period_fs / reps[0]));
    const std::uint64_t per_period =
        std::accumulate(reps.begin(), reps.end(), std::uint64_t{0});
    const std::uint64_t n_periods =
        std::clamp<std::uint64_t>(150'000 / per_period, 5, 257) | 1U;
    return de::time::from_fs(
        static_cast<std::int64_t>(period_fs * n_periods + period_fs / 3));
}

/// Seeded random chain: src -> k poly stages -> sink, rates 1..8 on every
/// port, delay 0..4 on every stage input.
de::time build_chain(graph& g, std::mt19937& rng) {
    std::uniform_int_distribution<unsigned> rate(1, 8);
    std::uniform_int_distribution<unsigned> delay(0, 4);
    std::uniform_int_distribution<int> len(2, 5);

    auto& src = g.add<idx_source>(de::module_name("src"), rate(rng));
    std::vector<tdf::rate_edge> edges;
    unsigned prev_rate = src.out.rate();
    tdf::signal<double>* prev = &g.wire("w0");
    src.out.bind(*prev);
    const int n = len(rng);
    for (int i = 0; i < n; ++i) {
        auto& st = g.add<poly_stage>(
            de::module_name(("st" + std::to_string(i)).c_str()), rate(rng), rate(rng));
        st.in.set_delay(delay(rng));
        st.in.bind(*prev);
        edges.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(i) + 1,
                         prev_rate, st.in.rate()});
        prev_rate = st.out.rate();
        prev = &g.wire("w" + std::to_string(i + 1));
        st.out.bind(*prev);
    }
    auto& sink = g.add<collector>(de::module_name("sink"), rate(rng));
    sink.in.set_delay(delay(rng));
    sink.in.bind(*prev);
    edges.push_back({static_cast<std::size_t>(n), static_cast<std::size_t>(n) + 1,
                     prev_rate, sink.in.rate()});
    g.sinks.push_back(&sink);
    return setup_timing(src, static_cast<std::size_t>(n) + 2, edges);
}

/// Seeded random fan-out: one source feeding two independent branches.
de::time build_fanout(graph& g, std::mt19937& rng) {
    std::uniform_int_distribution<unsigned> rate(1, 8);
    std::uniform_int_distribution<unsigned> delay(0, 4);

    auto& src = g.add<idx_source>(de::module_name("src"), rate(rng));
    auto& trunk = g.wire("trunk");
    src.out.bind(trunk);
    std::vector<tdf::rate_edge> edges;
    for (std::size_t b = 0; b < 2; ++b) {
        auto& st = g.add<poly_stage>(
            de::module_name(("br" + std::to_string(b)).c_str()), rate(rng), rate(rng));
        st.in.set_delay(delay(rng));
        st.in.bind(trunk);
        auto& w = g.wire("bw" + std::to_string(b));
        st.out.bind(w);
        auto& sink =
            g.add<collector>(de::module_name(("sink" + std::to_string(b)).c_str()));
        sink.in.bind(w);
        g.sinks.push_back(&sink);
        // Module indices: src 0, branch stages 1/3, branch sinks 2/4.
        edges.push_back({0, 2 * b + 1, src.out.rate(), st.in.rate()});
        edges.push_back({2 * b + 1, 2 * b + 2, st.out.rate(), sink.in.rate()});
    }
    return setup_timing(src, 5, edges);
}

/// Run `build` under block or per-sample execution and return every sink's
/// full waveform.  `build` returns the run duration.
template <typename BuildFn>
std::vector<std::vector<double>> run_graph(BuildFn&& build, bool block,
                                           std::uint64_t max_batch) {
    de::simulation_context ctx;
    auto& reg = tdf::registry::of(ctx);
    reg.set_default_block_execution(block);
    reg.set_default_max_batch_periods(max_batch);
    graph g;
    const de::time dur = build(g);
    ctx.run(dur);
    std::vector<std::vector<double>> waves;
    waves.reserve(g.sinks.size());
    for (collector* c : g.sinks) waves.push_back(c->samples);
    return waves;
}

/// batch_periods() of the single cluster `build` elaborates under the batch
/// cap `max_batch`.
template <typename BuildFn>
std::uint64_t batch_periods_of(BuildFn&& build, std::uint64_t max_batch) {
    de::simulation_context ctx;
    auto& reg = tdf::registry::of(ctx);
    reg.set_default_max_batch_periods(max_batch);
    graph g;
    (void)build(g);
    ctx.elaborate();
    return reg.clusters().at(0)->batch_periods();
}

void expect_identical(const std::vector<std::vector<double>>& a,
                      const std::vector<std::vector<double>>& b,
                      const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].size(), b[s].size()) << what << " sink " << s;
        for (std::size_t i = 0; i < a[s].size(); ++i) {
            // Bit-identity: EXPECT_EQ on doubles, not NEAR.
            ASSERT_EQ(a[s][i], b[s][i])
                << what << " sink " << s << " sample " << i;
        }
    }
}

}  // namespace

// ----------------------------------------------------- randomized topologies

TEST(block_equivalence, seeded_random_chains) {
    for (std::uint32_t seed = 0; seed < 10; ++seed) {
        auto build = [&](graph& g) {
            std::mt19937 rng(seed);
            return build_chain(g, rng);
        };
        // Per-sample execution, one period per pass: the reference order.
        const auto ref = run_graph(build, false, 1);
        const auto base = run_graph(build, false, 64);
        const auto blk = run_graph(build, true, 64);
        ASSERT_FALSE(ref.empty());
        ASSERT_FALSE(ref[0].empty());
        expect_identical(ref, base, "chain seed " + std::to_string(seed) + " per-sample");
        expect_identical(ref, blk, "chain seed " + std::to_string(seed) + " block");
    }
}

TEST(block_equivalence, seeded_random_fanout) {
    for (std::uint32_t seed = 100; seed < 106; ++seed) {
        auto build = [&](graph& g) {
            std::mt19937 rng(seed);
            return build_fanout(g, rng);
        };
        const auto ref = run_graph(build, false, 1);
        const auto base = run_graph(build, false, 64);
        const auto blk = run_graph(build, true, 64);
        expect_identical(ref, base, "fanout seed " + std::to_string(seed) + " per-sample");
        expect_identical(ref, blk, "fanout seed " + std::to_string(seed) + " block");
    }
}

TEST(block_equivalence, wrap_straddling_batch_caps) {
    // Odd batch caps give passes of odd period counts (a chain fuses up to
    // the cap) and block runs that hit the ring-buffer wrap mid-run; every
    // cap must still reproduce the per-sample waveform exactly.
    auto build = [](graph& g) {
        std::mt19937 rng(42);
        return build_chain(g, rng);
    };
    const auto base = run_graph(build, false, 1);
    for (std::uint64_t cap : {1ULL, 2ULL, 3ULL, 5ULL, 7ULL, 13ULL, 64ULL}) {
        EXPECT_EQ(batch_periods_of(build, cap), cap);
        const auto blk = run_graph(build, true, cap);
        expect_identical(base, blk, "batch cap " + std::to_string(cap));
    }
}

// --------------------------------------------------------- library pipeline

TEST(block_equivalence, dsp_library_multirate_pipeline) {
    // src -> fir -> biquad -> interpolator 1:3 -> amplifier-ish gain via
    // poly -> decimator 4:1 -> sink: the real library kernels, multirate.
    auto build = [](graph& g) {
        auto& src = g.add<idx_source>(de::module_name("src"), 1U);
        src.step = 3_us;  // divisible by the 1:3 interpolation below
        auto& f = g.add<lib::fir>(de::module_name("fir"),
                                  lib::fir::design_lowpass(15, 0.2));
        auto& bq = g.add<lib::biquad>(de::module_name("bq"),
                                      lib::biquad_coefficients{0.2, 0.3, 0.1, -0.4, 0.05});
        auto& up = g.add<lib::interpolator>(de::module_name("up"), 3U);
        auto& down = g.add<lib::decimator>(de::module_name("down"), 4U);
        auto& sink = g.add<collector>(de::module_name("sink"));
        auto &w1 = g.wire("w1"), &w2 = g.wire("w2"), &w3 = g.wire("w3"),
             &w4 = g.wire("w4"), &w5 = g.wire("w5");
        src.out.bind(w1);
        f.in.bind(w1);
        f.out.bind(w2);
        bq.in.bind(w2);
        bq.out.bind(w3);
        up.in.bind(w3);
        up.out.bind(w4);
        down.in.bind(w4);
        down.out.bind(w5);
        sink.in.bind(w5);
        g.sinks.push_back(&sink);
        return de::time(2000.0, de::time_unit::us);
    };
    const auto base = run_graph(build, false, 64);
    const auto blk = run_graph(build, true, 64);
    ASSERT_GT(base[0].size(), 100U);
    expect_identical(base, blk, "dsp pipeline");
}

TEST(block_equivalence, sigma_delta_adc_composite) {
    auto build = [](graph& g) {
        auto& src = g.add<idx_source>(de::module_name("src"), 1U);
        auto& adc = g.add<lib::sigma_delta_adc>(de::module_name("adc"), 2U, 1.0, 16U);
        auto& sink = g.add<collector>(de::module_name("sink"));
        auto &w1 = g.wire("w1"), &w2 = g.wire("w2");
        src.out.bind(w1);
        adc.in.bind(w1);
        adc.out.bind(w2);
        sink.in.bind(w2);
        g.sinks.push_back(&sink);
        return de::time(3000.0, de::time_unit::us);
    };
    const auto base = run_graph(build, false, 64);
    const auto blk = run_graph(build, true, 64);
    ASSERT_GT(base[0].size(), 100U);
    expect_identical(base, blk, "sigma-delta adc");
}

// --------------------------------------------------------------- feedback

TEST(block_equivalence, delayed_feedback_loop) {
    // src -> (+) -> out, out fed back into the adder through a 1-token
    // delay: a module reading its own output counts its own writes, so the
    // self-loop still fuses the full 64 periods.
    auto build = [](graph& g) {
        auto& src = g.add<idx_source>(de::module_name("src"), 1U);
        auto& add = g.add<fb_adder>(de::module_name("add"));
        auto& sink = g.add<collector>(de::module_name("sink"));
        auto &w1 = g.wire("w1"), &w2 = g.wire("w2");
        src.out.bind(w1);
        add.a.bind(w1);
        add.fb.set_delay(1);
        add.fb.bind(w2);
        add.out.bind(w2);
        sink.in.bind(w2);
        g.sinks.push_back(&sink);
        return de::time(733.0, de::time_unit::us);
    };
    EXPECT_EQ(batch_periods_of(build, 64), 64U);
    const auto ref = run_graph(build, false, 1);
    const auto blk = run_graph(build, true, 64);
    ASSERT_GT(ref[0].size(), 700U);
    expect_identical(ref, blk, "feedback loop");
}

TEST(block_equivalence, delay_d_loop_through_two_modules_fuses_d_periods) {
    // src -> (+) -> stage -> back into (+) through a D-token delay: a pass
    // of k periods fires the adder k times before the stage fires once, so
    // only k <= D is legal.
    for (unsigned d : {1U, 2U, 3U, 5U}) {
        auto build = [d](graph& g) {
            auto& src = g.add<idx_source>(de::module_name("src"), 1U);
            auto& add = g.add<fb_adder>(de::module_name("add"));
            auto& st = g.add<poly_stage>(de::module_name("st"), 1U, 1U);
            auto& sink = g.add<collector>(de::module_name("sink"));
            auto &w1 = g.wire("w1"), &w2 = g.wire("w2"), &w3 = g.wire("w3");
            src.out.bind(w1);
            add.a.bind(w1);
            add.out.bind(w2);
            st.in.bind(w2);
            st.out.bind(w3);
            add.fb.set_delay(d);
            add.fb.bind(w3);
            sink.in.bind(w2);
            g.sinks.push_back(&sink);
            return de::time(733.0, de::time_unit::us);
        };
        EXPECT_EQ(batch_periods_of(build, 64), d) << "delay " << d;
        EXPECT_EQ(batch_periods_of(build, 2), std::min(d, 2U)) << "delay " << d;
        const auto ref = run_graph(build, false, 1);
        ASSERT_GT(ref[0].size(), 700U);
        expect_identical(ref, run_graph(build, false, 64), "delay " + std::to_string(d));
        expect_identical(ref, run_graph(build, true, 64), "delay " + std::to_string(d));
    }
}

TEST(block_equivalence, three_module_loop_closed_by_one_delay_never_fuses_periods) {
    // src -> (+) -> stage -> lag -> back into (+) through one delay token,
    // with a per-sample module on the loop: one period per pass.
    struct lag : tdf::module {
        tdf::in<double> in;
        tdf::out<double> out;
        double state = 0.0;
        explicit lag(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
        void processing() override {
            state = 0.9 * state + 0.1 * in.read();
            out.write(state);
        }
    };
    auto build = [](graph& g) {
        auto& src = g.add<idx_source>(de::module_name("src"), 1U);
        auto& add = g.add<fb_adder>(de::module_name("add"));
        auto& st = g.add<poly_stage>(de::module_name("st"), 1U, 1U);
        auto& lg = g.add<lag>(de::module_name("lag"));
        auto& sink = g.add<collector>(de::module_name("sink"));
        auto &w1 = g.wire("w1"), &w2 = g.wire("w2"), &w3 = g.wire("w3"), &w4 = g.wire("w4");
        src.out.bind(w1);
        add.a.bind(w1);
        add.out.bind(w2);
        st.in.bind(w2);
        st.out.bind(w3);
        lg.in.bind(w3);
        lg.out.bind(w4);
        add.fb.set_delay(1);
        add.fb.bind(w4);
        sink.in.bind(w2);
        g.sinks.push_back(&sink);
        return de::time(500.0, de::time_unit::us);
    };
    EXPECT_EQ(batch_periods_of(build, 64), 1U);
    const auto ref = run_graph(build, false, 1);
    ASSERT_GT(ref[0].size(), 400U);
    expect_identical(ref, run_graph(build, true, 64), "three-module loop");
}

// ------------------------------------------------------------- diagnostics

TEST(block_execution, counters_report_block_calls) {
    de::simulation_context ctx;
    auto& reg = tdf::registry::of(ctx);
    reg.set_default_block_execution(true);
    idx_source src(de::module_name("src"), 1U);
    poly_stage st(de::module_name("st"), 1U, 1U);
    collector sink(de::module_name("sink"));
    tdf::signal<double> w1("w1"), w2("w2");
    src.out.bind(w1);
    st.in.bind(w1);
    st.out.bind(w2);
    sink.in.bind(w2);
    ctx.run(1000_us);

    // Multi-period passes collapsed many firings into few block calls.
    EXPECT_GT(st.block_firing_count(), 0U);
    EXPECT_GT(st.block_call_count(), 0U);
    EXPECT_LT(st.block_call_count(), st.block_firing_count());
    EXPECT_EQ(st.activation_count(), 1001U);

    const auto& cl = *reg.clusters().at(0);
    EXPECT_TRUE(cl.block_execution());
    EXPECT_EQ(cl.batch_periods(), cl.max_batch_periods());  // a chain fuses up to the cap
    EXPECT_GT(cl.fused_cycle_count(), 0U);
}

TEST(block_execution, disabled_means_no_block_calls) {
    de::simulation_context ctx;
    tdf::registry::of(ctx).set_default_block_execution(false);
    idx_source src(de::module_name("src"), 1U);
    collector sink(de::module_name("sink"));
    tdf::signal<double> w("w");
    src.out.bind(w);
    sink.in.bind(w);
    ctx.run(100_us);
    EXPECT_EQ(src.block_call_count(), 0U);
    EXPECT_EQ(sink.block_call_count(), 0U);
    EXPECT_EQ(src.activation_count(), 101U);
}

// ------------------------------------------- ring-buffer span arithmetic ----
// Audit regressions for the contiguity machinery: ring offsets, wrap-point
// splitting, the per-sample wrap fallback, and the ring capacity guard of
// the pass rule.

TEST(block_spans, wrap_exactly_at_batch_boundary) {
    // Buffers are sized for the longest pass, so executing one consumes
    // exactly the ring capacity: every full pass ends with the write/read
    // offsets back at zero (wrap exactly at the block boundary, never inside
    // a span).  No firing should need the per-sample fallback.
    de::simulation_context ctx;
    auto& reg = tdf::registry::of(ctx);
    reg.set_default_block_execution(true);
    reg.set_default_max_batch_periods(8);
    idx_source src(de::module_name("src"), 1U);
    collector sink(de::module_name("sink"));
    tdf::signal<double> w("w");
    src.out.bind(w);
    sink.in.bind(w);
    ctx.run(1600_us);  // 1601 periods: many full 8-period passes

    // Zero wrap-straddle fallbacks: every firing went through a block call.
    EXPECT_EQ(src.block_firing_count(), src.activation_count());
    EXPECT_EQ(sink.block_firing_count(), sink.activation_count());
    EXPECT_EQ(src.activation_count(), 1601U);
    for (std::size_t i = 0; i < sink.samples.size(); ++i) {
        ASSERT_EQ(sink.samples[i], idx_source::value(i)) << "sample " << i;
    }
}

TEST(block_spans, misaligned_delay_takes_wrap_fallback_and_stays_exact) {
    // A delayed rate-3 reader walks its ring offset through 2, 5, 8, ... so
    // some reads straddle the wrap point: those firings must fall back to
    // per-sample execution (block_firing_count < activation_count) and the
    // waveform must still match the per-sample baseline bit for bit.
    auto build = [](graph& g) {
        auto& src = g.add<idx_source>(de::module_name("src"), 1U);
        auto& sink = g.add<collector>(de::module_name("sink"), 3U);
        sink.in.set_delay(1);
        auto& w = g.wire("w");
        src.out.bind(w);
        sink.in.bind(w);
        g.sinks.push_back(&sink);
        return de::time(1200.0, de::time_unit::us);
    };
    const auto base = run_graph(build, false, 8);
    const auto blk = run_graph(build, true, 8);
    expect_identical(base, blk, "misaligned delayed reader");

    // Confirm the fallback actually triggered in block mode.
    de::simulation_context ctx;
    auto& reg = tdf::registry::of(ctx);
    reg.set_default_block_execution(true);
    reg.set_default_max_batch_periods(8);
    idx_source src(de::module_name("src"), 1U);
    collector sink(de::module_name("sink"), 3U);
    sink.in.set_delay(1);
    tdf::signal<double> w("w");
    src.out.bind(w);
    sink.in.bind(w);
    ctx.run(1200_us);
    EXPECT_GT(sink.block_firing_count(), 0U);
    EXPECT_LT(sink.block_firing_count(), sink.activation_count());
}

TEST(block_spans, batch_respects_ring_capacity_guard) {
    // 9000 tokens per period on both wires: a pass of k periods needs rings
    // of 9000 k tokens plus one firing of slack, so the 2^16-token bound
    // stops the pass at 6 periods (9000 x 7 = 63000 <= 65536 < 72000)
    // despite max_batch 64.
    de::simulation_context ctx;
    auto& reg = tdf::registry::of(ctx);
    reg.set_default_block_execution(true);
    reg.set_default_max_batch_periods(64);
    idx_source src(de::module_name("src"), 9000U);
    poly_stage widen(de::module_name("widen"), 9000U, 9000U);
    collector sink(de::module_name("sink"), 9000U);
    tdf::signal<double> w1("w1"), w2("w2");
    src.out.bind(w1);
    widen.in.bind(w1);
    widen.out.bind(w2);
    sink.in.bind(w2);
    ctx.run(40_us);

    const auto& cl = *reg.clusters().at(0);
    EXPECT_EQ(cl.batch_periods(), 6U);
    EXPECT_EQ(w1.capacity(), 63000U);
    EXPECT_EQ(w2.capacity(), 63000U);
    EXPECT_GT(cl.fused_cycle_count(), 0U);
    // And the stream is still exact.
    EXPECT_EQ(src.activation_count(), 41U);
    EXPECT_EQ(src.next, src.activation_count() * 9000U);
    ASSERT_EQ(sink.samples.size(), src.next);
}

TEST(block_spans, prefilled_delay_slots_read_initial_value) {
    // A reader with delay d sees d initial-value tokens before the first
    // produced one; the block path maps those negative stream indices onto
    // the prefilled ring slots, so the waveform must start with EXACTLY d
    // copies of the initial value in both modes.
    for (unsigned d = 0; d <= 4; ++d) {
        auto build = [d](graph& g) {
            auto& src = g.add<idx_source>(de::module_name("src"), 1U);
            auto& sink = g.add<collector>(de::module_name("sink"), 1U);
            sink.in.set_delay(d);
            auto& w = g.wire("w");
            src.out.bind(w);
            sink.in.bind(w);
            g.sinks.push_back(&sink);
            return de::time(500.0, de::time_unit::us);
        };
        const auto base = run_graph(build, false, 64);
        const auto blk = run_graph(build, true, 64);
        expect_identical(base, blk, "delay " + std::to_string(d));
        for (unsigned i = 0; i < d; ++i) {
            ASSERT_EQ(blk[0][i], 0.0) << "delay " << d << " prefill token " << i;
        }
        ASSERT_EQ(blk[0][d], idx_source::value(0)) << "delay " << d;
    }
}
