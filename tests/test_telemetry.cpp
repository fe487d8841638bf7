// Unified instrumentation layer: histogram registry semantics, the one JSON
// writer (escaping, locale-independent round-tripping numbers), Chrome-trace
// export well-formedness and span coverage for a multirate TDF + ELN run,
// collected counters (owners report their members; collection adds the
// histograms to the wire set), counter reset/carryover pins across repeated
// run() / scheduler reset / snapshot restore, bit-identical worker-metrics
// aggregation across backends and worker counts, and concurrent recording
// (the TSan job runs this binary).  Built with SCA_ENABLE_TELEMETRY=OFF too,
// where assertions on macro-recorded spans and timer samples expect none.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <locale>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "core/snapshot.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/context.hpp"
#include "kernel/scheduler.hpp"
#include "kernel/signal.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/telemetry.hpp"
#include "util/trace_export.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace tdf = sca::tdf;
namespace util = sca::util;
using namespace sca::de::literals;

namespace {

constexpr double k_pi = 3.141592653589793;

struct sine_src : tdf::module {
    tdf::out<double> out;
    explicit sine_src(const de::module_name& nm) : tdf::module(nm), out("out") {}
    void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
    void processing() override {
        out.write(std::sin(2.0 * k_pi * 1e3 * tdf_time().to_seconds()));
    }
};

/// 1:2 upsampler — makes the cluster genuinely multirate.
struct doubler : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    explicit doubler(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
    void set_attributes() override { out.set_rate(2); }
    void processing() override {
        const double v = in.read();
        out.write(v, 0);
        out.write(v, 1);
    }
};

struct sink : tdf::module {
    tdf::in<double> in;
    double last = 0.0;
    explicit sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override {
        for (unsigned k = 0; k < in.rate(); ++k) last = in.read(k);
    }
};

/// A periodic DE writer and a reader sensitive to its signal: every write
/// wakes the reader one delta cycle later.  TDF clusters create no delta
/// cycles, so this is what gives the rigs below a delta-cycle count to pin.
struct de_ticker : de::module {
    de::signal<int> level{"level", 0};
    int seen = 0;

    explicit de_ticker(const de::module_name& nm) : de::module(nm) {
        declare_method("write", [this] {
            level.write(level.read() + 1);
            next_trigger(50_us);
        });
        declare_method("read", [this] { seen = level.read(); })
            .sensitive(level.value_changed_event())
            .dont_initialize();
    }
};

/// Multirate TDF chain + RC lowpass ELN network + DE ticker in one context:
/// every span family (elaboration, cluster firing, DAE solve) shows up in
/// the trace.
struct multidomain_rig {
    de_ticker ticker{"ticker"};
    sine_src src{"src"};
    doubler up{"up"};
    sink snk{"snk"};
    tdf::signal<double> s1{"s1"}, s2{"s2"};
    eln::network net{de::module_name("net")};
    std::vector<std::unique_ptr<eln::component>> parts;

    multidomain_rig() {
        src.out.bind(s1);
        up.in.bind(s1);
        up.out.bind(s2);
        snk.in.bind(s2);
        net.set_timestep(10.0, de::time_unit::us);
        auto gnd = net.ground();
        auto vin = net.create_node("vin");
        auto vout = net.create_node("vout");
        parts.push_back(std::make_unique<eln::vsource>("vs", net, vin, gnd,
                                                       eln::waveform::sine(1.0, 1e3)));
        parts.push_back(std::make_unique<eln::resistor>("r", net, vin, vout, 1e3));
        parts.push_back(std::make_unique<eln::capacitor>("c", net, vout, gnd, 100e-9));
    }
};

/// RC lowpass scenario for run_set metrics aggregation (mirrors the
/// backend-suite reference testbench), plus a DE ticker as delta source.
core::scenario define_rc(const std::string& name) {
    return core::scenario::define(
        name, core::params{{"r", 1e3}, {"c", 100e-9}},
        [](core::testbench& tb, const core::params& p) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(5.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::sine(1.0, 1e3));
            tb.make<eln::resistor>("r", net, vin, vout, p.get("r", 1e3));
            tb.make<eln::capacitor>("c", net, vout, gnd, p.get("c", 100e-9));
            tb.make<de_ticker>("ticker");
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.set_stop_time(de::time::from_seconds(0.5e-3));
            tb.set_sample_period(20_us);
        });
}

std::string metrics_csv_of(const core::result_table& t) {
    std::ostringstream os;
    t.write_metrics_csv(os);
    return os.str();
}

// Minimal JSON well-formedness checker (objects/arrays/strings/numbers/
// true/false/null) — enough to guarantee a viewer can parse the export.
struct json_checker {
    const char* p;
    const char* end;
    bool ok = true;

    explicit json_checker(const std::string& s) : p(s.data()), end(s.data() + s.size()) {}

    void ws() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
    }
    bool eat(char c) {
        ws();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }
    void fail() { ok = false; }
    void string() {
        if (!eat('"')) return fail();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end) return fail();
            }
            ++p;
        }
        if (p >= end) return fail();
        ++p;  // closing quote
    }
    void number() {
        if (p < end && (*p == '-' || *p == '+')) ++p;
        const char* start = p;
        while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) != 0 ||
                           *p == '.' || *p == 'e' || *p == 'E' || *p == '-' ||
                           *p == '+')) {
            ++p;
        }
        if (p == start) fail();
    }
    bool literal(const char* lit) {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (static_cast<std::size_t>(end - p) >= n &&
            std::char_traits<char>::compare(p, lit, n) == 0) {
            p += n;
            return true;
        }
        return false;
    }
    void value() {
        if (!ok) return;
        ws();
        if (p >= end) return fail();
        if (*p == '{') {
            ++p;
            if (eat('}')) return;
            do {
                string();
                if (!ok || !eat(':')) return fail();
                value();
                if (!ok) return;
            } while (eat(','));
            if (!eat('}')) fail();
        } else if (*p == '[') {
            ++p;
            if (eat(']')) return;
            do {
                value();
                if (!ok) return;
            } while (eat(','));
            if (!eat(']')) fail();
        } else if (*p == '"') {
            string();
        } else if (literal("true") || literal("false") || literal("null")) {
        } else {
            number();
        }
    }
    bool parse() {
        value();
        ws();
        return ok && p == end;
    }
};

bool json_well_formed(const std::string& s) { return json_checker(s).parse(); }

}  // namespace

// ----------------------------------------------------------------- registry --

TEST(metrics_registry, histogram_semantics) {
    util::metrics_registry reg;
    util::histogram& h = reg.get_histogram("a.hist");
    EXPECT_EQ(&reg.get_histogram("a.hist"), &h) << "find-or-create must return the same slot";
    EXPECT_EQ(h.count(), 0U);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty histogram reads as zeros
    h.record(2.0);
    h.record(6.0);
    h.record(4.0);
    EXPECT_EQ(h.count(), 3U);
    EXPECT_DOUBLE_EQ(h.sum(), 12.0);
    EXPECT_DOUBLE_EQ(h.min(), 2.0);
    EXPECT_DOUBLE_EQ(h.max(), 6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(metrics_registry, snapshot_holds_the_histograms_sorted_by_name) {
    util::metrics_registry reg;
    reg.get_histogram("z.last").record(1.0);
    reg.get_histogram("a.first").record(2.0);
    reg.get_histogram("a.first").record(3.0);
    const util::metrics_snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2U);
    EXPECT_EQ(snap[0], (util::metric_value{.name = "a.first",
                                           .kind = util::metric_value::metric_kind::histogram,
                                           .count = 2,
                                           .value = 5.0,
                                           .min = 2.0,
                                           .max = 3.0}));
    EXPECT_EQ(snap[1].name, "z.last");
    EXPECT_EQ(snap[1].count, 1U);
}

TEST(metrics_registry, scoped_timer_records_one_sample) {
    util::metrics_registry reg;
    util::histogram& h = reg.get_histogram("t");
    {
        util::scoped_timer timer(&h);
    }
    EXPECT_EQ(h.count(), 1U);
    EXPECT_GE(h.sum(), 0.0);
    {
        util::scoped_timer disabled(nullptr);  // null histogram = no-op
    }
    EXPECT_EQ(h.count(), 1U);
}

// ------------------------------------------------------------------- export --

TEST(metrics_export, json_is_well_formed_and_escapes_names) {
    const util::metrics_snapshot snap = {
        {.name = "k.count", .count = 42},
        {.name = "k.gauge", .kind = util::metric_value::metric_kind::gauge, .value = 1.0 / 3.0},
        {.name = "k\"quoted\"\\hist\n\x01",
         .kind = util::metric_value::metric_kind::histogram,
         .count = 1,
         .value = 2.5,
         .min = 2.5,
         .max = 2.5},
    };
    std::ostringstream js;
    util::write_metrics_json(js, snap);
    const std::string s = js.str();
    EXPECT_TRUE(json_well_formed(s)) << s;
    EXPECT_NE(s.find("{\"name\":\"k.count\",\"kind\":\"counter\",\"value\":42}"),
              std::string::npos)
        << s;
    EXPECT_NE(s.find("\"value\":0.33333333333333331"), std::string::npos) << s;
    EXPECT_NE(s.find("\"k\\\"quoted\\\"\\\\hist\\n\\u0001\""), std::string::npos) << s;
    EXPECT_NE(s.find("\"count\":1,\"sum\":2.5,\"min\":2.5,\"max\":2.5"), std::string::npos)
        << s;
}

TEST(metrics_export, numbers_ignore_the_global_locale_and_round_trip) {
    struct comma_decimal : std::numpunct<char> {
        char do_decimal_point() const override { return ','; }
    };
    const std::locale previous =
        std::locale::global(std::locale(std::locale::classic(), new comma_decimal));
    const std::string tenth = util::fmt_double(0.1);
    std::locale::global(previous);
    EXPECT_EQ(tenth, "0.10000000000000001");
    for (const double v : {0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23}) {
        EXPECT_EQ(std::strtod(util::fmt_double(v).c_str(), nullptr), v) << v;
    }
}

// ------------------------------------------------------------------- tracer --

TEST(event_tracer, off_by_default_and_bounded_with_drop_counting) {
    util::event_tracer tr(4);  // tiny capacity to hit the bound
    {
        util::scoped_span span(&tr, "ignored", "test");
    }
    EXPECT_EQ(tr.event_count(), 0U) << "disabled tracer must not record";

    tr.enable();
    for (int i = 0; i < 10; ++i) {
        util::scoped_span span(&tr, "s", "test");
    }
    tr.disable();
    EXPECT_EQ(tr.event_count(), 4U);
    EXPECT_EQ(tr.dropped(), 6U);

    tr.enable();  // re-enable clears the buffer and the drop count
    EXPECT_EQ(tr.event_count(), 0U);
    EXPECT_EQ(tr.dropped(), 0U);
}

TEST(event_tracer, chrome_json_from_multidomain_run_has_kernel_spans) {
    de::simulation_context sim;
    sim.tracer().enable();
    multidomain_rig rig;
    sim.run(de::time::from_seconds(2e-3));
    sim.tracer().disable();

    std::ostringstream os;
    sim.tracer().write_chrome_json(os);
    const std::string trace = os.str();

    EXPECT_TRUE(json_well_formed(trace));
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
#if SCA_TELEMETRY_ENABLED
    // The Perfetto acceptance surface: elaboration, cluster-firing and
    // solver spans all present, with complete-event framing.
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"elaborate\""), std::string::npos);
    EXPECT_NE(trace.find("\"tdf.elaborate_clusters\""), std::string::npos);
    EXPECT_NE(trace.find("\"tdf.cluster.cycles\""), std::string::npos);
    EXPECT_NE(trace.find("\"dae.step\""), std::string::npos);
    EXPECT_NE(trace.find("\"kernel.run\""), std::string::npos);
#else
    EXPECT_EQ(sim.tracer().event_count(), 0U) << "span macros must compile out";
#endif
}

TEST(event_tracer, concurrent_recording_is_race_free) {
    // Four threads hammer one tracer + one histogram: the TSan job proves
    // the relaxed fast paths are data-race-free; counts must still add up.
    util::event_tracer tr;
    util::metrics_registry reg;
    util::histogram& h = reg.get_histogram("threads.hist");
    tr.enable();
    constexpr int k_threads = 4;
    constexpr int k_iters = 5000;
    std::vector<std::thread> pool;
    pool.reserve(k_threads);
    for (int t = 0; t < k_threads; ++t) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < k_iters; ++i) {
                util::scoped_span span(&tr, "work", "test");
                h.record(static_cast<double>(t));
            }
        });
    }
    for (auto& th : pool) th.join();
    tr.disable();
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(k_threads) * k_iters);
    EXPECT_EQ(tr.event_count() + tr.dropped(),
              static_cast<std::uint64_t>(k_threads) * k_iters);
    std::ostringstream os;
    tr.write_chrome_json(os);
    EXPECT_TRUE(json_well_formed(os.str()));
}

// ---------------------------------------------------- context integration --

TEST(context_metrics, owners_report_their_counters) {
    de::simulation_context sim;
    multidomain_rig rig;
    sim.run(de::time::from_seconds(1e-3));
    const util::metrics_snapshot snap = sim.collect_metrics();
    auto find = [&](const std::string& name) -> const util::metric_value* {
        for (const util::metric_value& mv : snap) {
            if (mv.name == name) return &mv;
        }
        return nullptr;
    };
    auto value_of = [&](const std::string& name) -> std::uint64_t {
        const util::metric_value* mv = find(name);
        return mv != nullptr ? mv->count : 0;
    };
    EXPECT_GT(value_of("kernel.delta_cycles"), 0U);
    EXPECT_GT(value_of("kernel.timed_notifications"), 0U);
    EXPECT_GT(value_of("tdf.cluster.cycles"), 0U);
    EXPECT_GT(value_of("tdf.module.activations"), 0U);
    EXPECT_GT(value_of("solver.numeric_factorizations"), 0U);
    // The collected values are the owners' members, not copies.
    EXPECT_EQ(value_of("kernel.delta_cycles"), sim.sched().delta_count());
    EXPECT_EQ(value_of("kernel.timed_notifications"), sim.sched().timed_notification_count());
    for (const char* gauge : {"kernel.pacing.drift_s", "kernel.pacing.max_drift_s"}) {
        const util::metric_value* mv = find(gauge);
        ASSERT_NE(mv, nullptr) << gauge;
        EXPECT_EQ(mv->kind, util::metric_value::metric_kind::gauge) << gauge;
    }
}

TEST(context_metrics, collect_metrics_adds_the_histograms_to_the_wire_set) {
    de::simulation_context sim;
    multidomain_rig rig;
    sim.run(de::time::from_seconds(1e-3));
    sim.metrics().get_histogram("time.test_s").record(0.5);
    const util::metrics_snapshot wire = sim.collect_wire_metrics();
    const util::metrics_snapshot all = sim.collect_metrics();
    auto by_name = [](const util::metric_value& a, const util::metric_value& b) {
        return a.name < b.name;
    };
    EXPECT_TRUE(std::is_sorted(wire.begin(), wire.end(), by_name));
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), by_name));
    util::metrics_snapshot counters_and_gauges;
    for (const util::metric_value& mv : all) {
        if (mv.kind == util::metric_value::metric_kind::histogram) {
            EXPECT_EQ(mv.name, "time.test_s");
            EXPECT_EQ(mv.count, 1U);
        } else {
            counters_and_gauges.push_back(mv);
        }
    }
    EXPECT_EQ(counters_and_gauges, wire);
    EXPECT_EQ(all.size(), wire.size() + 1);
}

TEST(context_metrics, contexts_are_isolated) {
    {
        de::simulation_context a;
        multidomain_rig rig;
        a.run(de::time::from_seconds(1e-3));
        EXPECT_GT(a.sched().delta_count(), 0U);
    }
    de::simulation_context b;
    EXPECT_EQ(b.sched().delta_count(), 0U)
        << "a fresh context must not inherit another context's counters";
}

// ------------------------------------------------------- reset / carryover --

TEST(context_metrics, collectors_are_idempotent) {
    de::simulation_context sim;
    multidomain_rig rig;
    sim.run(de::time::from_seconds(1e-3));
    const util::metrics_snapshot first = sim.collect_metrics();
    const util::metrics_snapshot second = sim.collect_metrics();
    EXPECT_EQ(first, second)
        << "collecting twice without running must not change any value";
}

TEST(context_metrics, counters_are_monotonic_across_repeated_run) {
    de::simulation_context sim;
    multidomain_rig rig;
    sim.run(de::time::from_seconds(1e-3));
    const std::uint64_t dc1 = sim.sched().delta_count();
    const util::metrics_snapshot snap1 = sim.collect_metrics();
    sim.run(de::time::from_seconds(1e-3));
    const std::uint64_t dc2 = sim.sched().delta_count();
    const util::metrics_snapshot snap2 = sim.collect_metrics();
    EXPECT_GT(dc2, dc1);
    ASSERT_EQ(snap1.size(), snap2.size())
        << "a second run must not mint new metric names";
    for (std::size_t i = 0; i < snap1.size(); ++i) {
        if (snap1[i].kind != util::metric_value::metric_kind::counter) continue;
        EXPECT_GE(snap2[i].count, snap1[i].count) << snap1[i].name;
    }
}

TEST(context_metrics, scheduler_reset_zeroes_the_collected_counters) {
    de::simulation_context sim;
    multidomain_rig rig;
    sim.run(de::time::from_seconds(1e-3));
    ASSERT_GT(sim.sched().delta_count(), 0U);
    sim.sched().reset();
    EXPECT_EQ(sim.sched().delta_count(), 0U);
    EXPECT_EQ(sim.sched().timed_notification_count(), 0U);
    for (const util::metric_value& mv : sim.collect_metrics()) {
        if (mv.name == "kernel.delta_cycles" || mv.name == "kernel.timed_notifications") {
            EXPECT_EQ(mv.count, 0U) << mv.name << " held a stale value after reset";
        }
    }
}

TEST(context_metrics, snapshot_restore_overlays_saved_counters) {
    static const core::scenario sc = define_rc("telemetry_snap_rc");
    auto tb = sc.build({});
    tb->run(de::time::from_seconds(0.25e-3));
    const std::uint64_t saved_dc = tb->context().sched().delta_count();
    const std::uint64_t saved_tn = tb->context().sched().timed_notification_count();
    ASSERT_GT(saved_dc, 0U);
    // SCA_SCOPED_TIMER sites record only with telemetry compiled in.
    const std::uint64_t timed = SCA_TELEMETRY_ENABLED ? 1U : 0U;
    const std::vector<std::uint8_t> bytes = core::encode_snapshot(*tb);
    EXPECT_EQ(tb->context().metrics().get_histogram("time.snapshot.save_s").count(), timed);

    auto restored = core::decode_snapshot(bytes);
    EXPECT_EQ(restored->context().sched().delta_count(), saved_dc);
    EXPECT_EQ(restored->context().sched().timed_notification_count(), saved_tn);
    EXPECT_EQ(
        restored->context().metrics().get_histogram("time.snapshot.restore_s").count(),
        timed);
}

// ----------------------------------------------------- run_set aggregation --

TEST(run_set_metrics, run_one_carries_the_deterministic_wire_subset) {
    static const core::scenario sc = define_rc("telemetry_rs_one");
    const core::run_set rs =
        core::run_set(sc).with_grid(core::param_grid().add("r", {1e3, 2e3}));
    const core::run_result r = rs.run_one(0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.metric("kernel.delta_cycles"), 0.0);
    EXPECT_GT(r.metric("tdf.cluster.cycles"), 0.0);
    EXPECT_GT(r.metric("solver.numeric_factorizations"), 0.0);
    EXPECT_EQ(r.metric("no.such.metric"), 0.0);
    for (const util::metric_value& mv : r.run_metrics) {
        EXPECT_NE(mv.kind, util::metric_value::metric_kind::histogram)
            << mv.name << ": histograms are wall-clock and must stay off the wire";
    }
    // Same index, fresh context: bit-identical metrics (no carryover).
    const core::run_result again = rs.run_one(0);
    EXPECT_EQ(r.run_metrics, again.run_metrics);
}

TEST(run_set_metrics, aggregation_is_bit_identical_across_backends_and_workers) {
    static const core::scenario sc = define_rc("telemetry_rs_agg");
    auto make = [&] {
        return core::run_set(sc)
            .with_grid(core::param_grid()
                           .add_logspace("r", 100.0, 10e3, 3)
                           .add("c", {47e-9, 100e-9, 220e-9}))
            .set_base_seed(0xfeedULL);
    };
    const core::result_table golden_table = make().set_workers(1).run_all();
    const std::string golden = metrics_csv_of(golden_table);
    ASSERT_NE(golden.find("kernel.delta_cycles"), std::string::npos);
    EXPECT_GT(golden_table.metrics_total("kernel.delta_cycles"), 0.0);

    EXPECT_EQ(metrics_csv_of(make().set_workers(4).run_all()), golden)
        << "in_thread workers=4";
    for (const unsigned workers : {1U, 2U, 4U, 8U}) {
        const core::result_table table = make()
                                             .set_backend(core::run_backend::multiprocess)
                                             .set_workers(workers)
                                             .run_all();
        EXPECT_EQ(table.failed_count(), 0U) << "workers=" << workers;
        EXPECT_EQ(metrics_csv_of(table), golden) << "workers=" << workers;
        for (const core::run_result& r : table.runs()) {
            EXPECT_GE(r.worker, 0) << "multiprocess runs must report their worker";
        }
    }
}
