// Hierarchical composition: make_child object trees, TDF port forwarding and
// connect(), ELN terminals and subcircuits — plus the elaboration-time
// diagnostics and the determinism contracts (flat vs hierarchical model
// construction is bit-identical; composites inside a parallel run_set match
// sequential execution exactly).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "eln/subcircuit.hpp"
#include "lib/amplifier.hpp"
#include "lib/converters.hpp"
#include "lib/filters.hpp"
#include "lib/mixer.hpp"
#include "lib/oscillator.hpp"
#include "lib/pipeline_adc.hpp"
#include "lib/sigma_delta.hpp"
#include "tdf/cluster.hpp"
#include "tdf/connect.hpp"
#include "tdf/port.hpp"
#include "util/report.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace sca::de::literals;

namespace {

struct scaler : tdf::module {
    tdf::in<double> x;
    tdf::out<double> y;
    double k;
    scaler(const de::module_name& nm, double gain) : tdf::module(nm), x("x"), y("y"),
                                                     k(gain) {}
    void processing() override { y.write(k * x.read()); }
};

struct ramp_src : tdf::module {
    tdf::out<double> out;
    double v = 0.0;
    explicit ramp_src(const de::module_name& nm) : tdf::module(nm), out("out") {}
    void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
    void processing() override {
        out.write(v);
        v += 0.125;
    }
};

struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> got;
    explicit collector(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { got.push_back(in.read()); }
};

/// One-level composite: two scalers in series behind forwarded ports.
struct gain_chain : tdf::composite {
    tdf::in<double> x;
    tdf::out<double> y;
    scaler* a = nullptr;
    scaler* b = nullptr;
    gain_chain(const de::module_name& nm, double k1, double k2)
        : tdf::composite(nm), x("x"), y("y") {
        a = &make_child<scaler>("a", k1);
        b = &make_child<scaler>("b", k2);
        a->x.bind(x);
        connect(a->y, b->x);
        b->y.bind(y);
    }
};

/// Two-level composite: a gain_chain nested inside another composite, with
/// the ports forwarded through both levels.
struct rx_stack : tdf::composite {
    tdf::in<double> x;
    tdf::out<double> y;
    gain_chain* filter = nullptr;
    rx_stack(const de::module_name& nm, double k1, double k2)
        : tdf::composite(nm), x("x"), y("y") {
        filter = &make_child<gain_chain>("filter", k1, k2);
        filter->x.bind(x);
        filter->y.bind(y);
    }
};

}  // namespace

// ----------------------------------------------------------- object tree ---

TEST(hierarchy, path_names_round_trip_through_find_object) {
    de::simulation_context ctx;
    struct top_mod : tdf::composite {
        explicit top_mod(const de::module_name& nm) : tdf::composite(nm) {
            make_child<rx_stack>("rx", 2.0, 3.0);
        }
    } top("top");

    for (const char* path :
         {"top", "top.rx", "top.rx.filter", "top.rx.filter.a", "top.rx.filter.a.x",
          "top.rx.filter.b.y", "top.rx.filter.a_y"}) {
        de::object* o = ctx.find_object(path);
        ASSERT_NE(o, nullptr) << path;
        EXPECT_EQ(o->name(), path);
    }
    de::object* filter = ctx.find_object("top.rx.filter");
    EXPECT_STREQ(filter->kind(), "tdf_composite");
    EXPECT_EQ(filter->parent(), ctx.find_object("top.rx"));
    // The interior wire created by connect() nests under its composite.
    EXPECT_STREQ(ctx.find_object("top.rx.filter.a_y")->kind(), "tdf_signal");
    EXPECT_EQ(ctx.find_object("does.not.exist"), nullptr);
}

TEST(hierarchy, make_child_can_grow_a_module_from_outside) {
    de::simulation_context ctx;
    struct group : tdf::composite {
        explicit group(const de::module_name& nm) : tdf::composite(nm) {}
    } g("g");
    auto& s = g.make_child<scaler>("late", 4.0);
    EXPECT_EQ(s.name(), "g.late");
    EXPECT_EQ(g.owned_children(), 1U);
    EXPECT_EQ(ctx.find_object("g.late"), &s);
}

TEST(hierarchy, children_are_destroyed_in_reverse_construction_order) {
    std::vector<int> log;
    struct witness : de::module {
        std::vector<int>* log_;
        int id_;
        witness(const de::module_name& nm, std::vector<int>* log, int id)
            : de::module(nm), log_(log), id_(id) {}
        ~witness() override { log_->push_back(id_); }
    };
    {
        de::simulation_context ctx;
        struct parent_mod : tdf::composite {
            parent_mod(const de::module_name& nm, std::vector<int>* log)
                : tdf::composite(nm) {
                make_child<witness>("w1", log, 1);
                make_child<witness>("w2", log, 2);
                make_child<witness>("w3", log, 3);
            }
        } p("p", &log);
    }
    ASSERT_EQ(log.size(), 3U);
    EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
}

// ------------------------------------------------- TDF forwarding + wiring --

TEST(hierarchy, two_level_forwarding_resolves_and_schedules) {
    de::simulation_context ctx;
    ramp_src src("src");
    rx_stack rx("rx", 2.0, 3.0);
    collector sink("sink");
    connect(src.out, rx.x);
    connect(rx.y, sink.in);

    ctx.run(100_us);
    ASSERT_EQ(sink.got.size(), 11U);
    for (std::size_t i = 0; i < sink.got.size(); ++i) {
        EXPECT_DOUBLE_EQ(sink.got[i], 6.0 * 0.125 * static_cast<double>(i));
    }
    // One cluster holds the leaf modules; the composites are not scheduled.
    const auto& clusters = tdf::registry::of(ctx).clusters();
    ASSERT_EQ(clusters.size(), 1U);
    EXPECT_EQ(clusters[0]->modules().size(), 4U);  // src, a, b, sink
    // Forwarded ports are aliases of the terminal signals.
    EXPECT_EQ(rx.x.bound_signal(), src.out.bound_signal());
    EXPECT_EQ(rx.filter->x.bound_signal(), src.out.bound_signal());
}

TEST(hierarchy, connect_fans_out_on_the_writers_signal) {
    de::simulation_context ctx;
    ramp_src src("src");
    collector c1("c1"), c2("c2");
    auto& w1 = tdf::connect(src.out, c1.in);
    auto& w2 = tdf::connect(src.out, c2.in);
    EXPECT_EQ(&w1, &w2);
    ctx.run(50_us);
    EXPECT_EQ(c1.got, c2.got);
    ASSERT_FALSE(c1.got.empty());
}

TEST(hierarchy, connect_rejects_a_name_on_the_fan_out_path) {
    de::simulation_context ctx;
    ramp_src src("src");
    collector c1("c1"), c2("c2");
    tdf::connect(src.out, c1.in, "first_wire");
    // The wire already exists; a second name cannot be applied silently.
    EXPECT_THROW(tdf::connect(src.out, c2.in, "second_wire"), sca::util::error);
}

TEST(hierarchy, destroyed_components_deregister_their_terminals) {
    de::simulation_context ctx;
    eln::network net("net");
    net.set_timestep(10.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    {
        // A component that dies before elaboration must not leave dangling
        // terminal registrations behind (exercised under ASan in CI).
        eln::resistor scratch("scratch", net, vin, vout, 1e3);
    }
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(1.0));
    eln::resistor r("r", net, vin, vout, 1e3);
    eln::capacitor c("c", net, vout, gnd, 100e-9);
    ctx.run(1_ms);
    EXPECT_NEAR(net.voltage(vout), 1.0, 1e-3);
}

// ------------------------------------------------------------ diagnostics ---

TEST(hierarchy, unbound_tdf_port_reports_full_path_at_elaboration) {
    de::simulation_context ctx;
    ramp_src src("src");
    collector sink("sink");
    connect(src.out, sink.in);        // a valid cluster on the side
    gain_chain amp("amp", 2.0, 3.0);  // amp.x / amp.y never bound externally
    try {
        ctx.elaborate();
        FAIL() << "expected an unbound-port diagnostic";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("amp."), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("unbound TDF port"), std::string::npos);
    }
}

TEST(hierarchy, genuinely_unbound_port_names_itself) {
    de::simulation_context ctx;
    ramp_src src("src");
    collector sink("sink");  // sink.in never bound
    tdf::signal<double> s("s");
    src.out.bind(s);
    try {
        ctx.elaborate();
        FAIL() << "expected an unbound-port diagnostic";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("sink.in"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("unbound TDF port"), std::string::npos);
    }
}

TEST(hierarchy, double_bound_input_is_rejected_with_path) {
    de::simulation_context ctx;
    collector sink("sink");
    tdf::signal<double> s1("s1"), s2("s2");
    sink.in.bind(s1);
    try {
        sink.in.bind(s2);
        FAIL() << "expected a double-binding diagnostic";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("sink.in"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("already bound"), std::string::npos);
    }
}

TEST(hierarchy, unbound_eln_terminal_reports_full_path) {
    de::simulation_context ctx;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    eln::rc_lowpass rc("rc1", net, 1e3, 1e-9);
    rc.in(vin);
    rc.ref(gnd);  // rc.out left unbound
    try {
        ctx.elaborate();
        FAIL() << "expected an unbound-terminal diagnostic";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("rc1.out"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("unbound ELN terminal"), std::string::npos);
    }
}

TEST(hierarchy, double_bound_terminal_is_rejected) {
    de::simulation_context ctx;
    eln::network net("net");
    auto a = net.create_node("a");
    auto b = net.create_node("b");
    eln::resistor r("r", net, a, net.ground(), 1e3);
    try {
        r.p(b);
        FAIL() << "expected a double-binding diagnostic";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("r.p"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("already bound"), std::string::npos);
    }
}

TEST(hierarchy, forwarded_pin_nature_is_checked_at_elaboration) {
    // A component pin forwarded through a subcircuit terminal that declares
    // no nature is checked once elaboration resolves the chain to its node.
    struct bare_pin : eln::subcircuit {
        eln::terminal in;
        eln::resistor r;
        bare_pin(const de::module_name& nm, eln::network& net)
            : subcircuit(nm, net), in("in", *this), r("r", net, in, net.ground(), 1e3) {}
    };
    de::simulation_context ctx;
    eln::network net("net");
    net.set_timestep(1.0, de::time_unit::us);
    auto hot = net.create_node("hot", eln::nature::thermal);
    bare_pin blk("blk", net);
    blk.in(hot);  // accepted: the subcircuit pin itself checks nothing
    try {
        ctx.elaborate();
        FAIL() << "expected a nature-mismatch diagnostic";
    } catch (const sca::util::error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("blk.r.p"), std::string::npos) << what;
        EXPECT_NE(what.find("terminal nature mismatch"), std::string::npos) << what;
    }
}

TEST(hierarchy, duplicate_node_names_are_rejected) {
    de::simulation_context ctx;
    eln::network net("net");
    (void)net.create_node("x");
    try {
        (void)net.create_node("x");
        FAIL() << "expected a duplicate-node diagnostic";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate node name 'x'"),
                  std::string::npos);
    }
}

// ------------------------------------------------------- ELN subcircuits ----

TEST(hierarchy, subcircuits_instantiate_n_times_with_unique_internals) {
    de::simulation_context ctx;
    eln::network net("net");
    net.set_timestep(10.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto mid = net.create_node("mid");
    auto vout = net.create_node("vout");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(1.0));
    // Two instances of the same ladder block: their internal tap nodes are
    // auto-prefixed with the instance path, so nothing collides.
    eln::rc_ladder l1("l1", net, 4, 1e3, 1e-9);
    eln::rc_ladder l2("l2", net, 4, 1e3, 1e-9);
    l1.a(vin);
    l1.b(mid);
    l1.ref(gnd);
    l2.a(mid);
    l2.b(vout);
    l2.ref(gnd);

    EXPECT_NE(ctx.find_object("l1.r0"), nullptr);
    EXPECT_NE(ctx.find_object("l2.r0"), nullptr);
    EXPECT_NE(ctx.find_object("l1.r0"), ctx.find_object("l2.r0"));

    ctx.run(5_ms);
    // DC steady state: no current flows, the full source voltage appears at
    // the far end of the ladder chain.
    EXPECT_NEAR(net.voltage(vout), 1.0, 1e-3);
}

TEST(hierarchy, resistive_divider_divides) {
    de::simulation_context ctx;
    eln::network net("net");
    net.set_timestep(10.0, de::time_unit::us);
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    eln::vsource vs("vs", net, vin, gnd, eln::waveform::dc(2.0));
    eln::resistive_divider div("div", net, 1e3, 1e3);
    div.in(vin);
    div.out(vout);
    div.ref(gnd);
    ctx.run(1_ms);
    EXPECT_NEAR(net.voltage(vout), 1.0, 1e-6);
}

// ----------------------------------------- flat vs hierarchical identity ----

namespace {

/// The quickstart topology, built flat (manual signals, node-constructed
/// components) or hierarchically (subcircuit + terminals + connect).  Both
/// must produce byte-identical probes and measurements.
core::scenario define_quickstart_like(const std::string& name, bool hierarchical) {
    return core::scenario::define(
        name, core::params{{"f_sine", 1e3}, {"r", 1e3}, {"c", 100e-9}},
        [hierarchical](core::testbench& tb, const core::params& p) {
            auto& src = tb.make<lib::sine_source>("src", 1.0, p.number("f_sine"));
            src.set_timestep(1.0, de::time_unit::us);

            auto& net = tb.make<eln::network>("net");
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            auto& cmp = tb.make<lib::comparator>("cmp", 0.0, 0.05);
            auto& square = tb.make<de::signal<bool>>("square", false);
            cmp.enable_de_output(square);

            struct bool_sink : tdf::module {
                tdf::in<bool> in;
                explicit bool_sink(const de::module_name& nm)
                    : tdf::module(nm), in("in") {}
                void processing() override { (void)in.read(); }
            };

            if (hierarchical) {
                auto& drive = tb.make<eln::tdf_vsource>("drive", net, vin, gnd);
                auto& rc =
                    tb.make<eln::rc_lowpass>("rc", net, p.number("r"), p.number("c"));
                rc.in(vin);
                rc.out(vout);
                rc.ref(gnd);
                auto& probe = tb.make<eln::tdf_vsink>("probe", net, vout, gnd);
                auto& bsink = tb.make<bool_sink>("bsink");
                auto& s_sine = connect(src.out, drive.inp);
                connect(probe.outp, cmp.in);
                connect(cmp.out, bsink.in);
                tb.probe("sine", s_sine);
            } else {
                auto& drive = tb.make<eln::tdf_vsource>("drive", net, vin, gnd);
                tb.make<eln::resistor>("rc_r", net, vin, vout, p.number("r"));
                tb.make<eln::capacitor>("rc_c", net, vout, gnd, p.number("c"));
                auto& probe = tb.make<eln::tdf_vsink>("probe", net, vout, gnd);
                auto& bsink = tb.make<bool_sink>("bsink");
                auto& s_sine = tb.make<tdf::signal<double>>("s_sine");
                auto& s_filtered = tb.make<tdf::signal<double>>("s_filtered");
                auto& s_square = tb.make<tdf::signal<bool>>("s_square");
                src.out.bind(s_sine);
                drive.inp.bind(s_sine);
                probe.outp.bind(s_filtered);
                cmp.in.bind(s_filtered);
                cmp.out.bind(s_square);
                bsink.in.bind(s_square);
                tb.probe("sine", s_sine);
            }
            tb.probe("filtered", [&net, vout] { return net.voltage(vout); });
            tb.probe("square", square);
            tb.set_sample_period(10_us);
            tb.set_stop_time(5_ms);
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
        });
}

}  // namespace

TEST(hierarchy, quickstart_like_flat_and_hierarchical_are_bit_identical) {
    auto flat = define_quickstart_like("qs_flat", false).build();
    auto hier = define_quickstart_like("qs_hier", true).build();
    flat->run();
    hier->run();

    EXPECT_TRUE(flat->times() == hier->times());
    for (const char* probe : {"sine", "filtered", "square"}) {
        EXPECT_TRUE(flat->waveform(probe) == hier->waveform(probe))
            << "probe '" << probe << "' differs";
    }
    EXPECT_TRUE(flat->measurements() == hier->measurements());
}

TEST(hierarchy, receiver_like_flat_and_hierarchical_are_bit_identical) {
    struct front_end : tdf::composite {
        tdf::in<double> rf;
        tdf::out<double> if_out;
        front_end(const de::module_name& nm, double f_lo)
            : tdf::composite(nm), rf("rf"), if_out("if_out") {
            auto& lna = make_child<lib::amplifier>("lna", 20.0, 1.0, -1.0);
            auto& lo = make_child<lib::quadrature_oscillator>("lo", 1.0, f_lo);
            auto& mix = make_child<lib::mixer>("mix", 2.0);
            auto& fir = make_child<lib::fir>("fir", lib::fir::design_lowpass(31, 0.02));
            struct null_sink : tdf::module {
                tdf::in<double> in;
                explicit null_sink(const de::module_name& nm)
                    : tdf::module(nm), in("in") {}
                void processing() override { (void)in.read(); }
            };
            auto& q = make_child<null_sink>("q");
            lna.in.bind(rf);
            connect(lna.out, mix.rf);
            connect(lo.out_i, mix.lo);
            connect(lo.out_q, q.in);
            connect(mix.out, fir.in);
            fir.out.bind(if_out);
        }
    };

    auto run_flat = [] {
        de::simulation_context sim;
        lib::sine_source src("src", 20e-3, 455e3);
        src.set_timestep(0.2, de::time_unit::us);
        lib::amplifier lna("lna", 20.0, 1.0, -1.0);
        lib::quadrature_oscillator lo("lo", 1.0, 445e3);
        lib::mixer mix("mix", 2.0);
        lib::fir fir("fir", lib::fir::design_lowpass(31, 0.02));
        collector rec("rec");
        collector qrec("qrec");
        tdf::signal<double> s1("s1"), s2("s2"), s3("s3"), s4("s4"), s5("s5");
        src.out.bind(s1);
        lna.in.bind(s1);
        lna.out.bind(s2);
        lo.out_i.bind(s3);
        lo.out_q.bind(s5);
        qrec.in.bind(s5);
        mix.rf.bind(s2);
        mix.lo.bind(s3);
        mix.out.bind(s4);
        fir.in.bind(s4);
        tdf::signal<double> s6("s6");
        fir.out.bind(s6);
        rec.in.bind(s6);
        sim.run(2_ms);
        return rec.got;
    };
    auto run_hier = [] {
        de::simulation_context sim;
        lib::sine_source src("src", 20e-3, 455e3);
        src.set_timestep(0.2, de::time_unit::us);
        front_end rx("rx", 445e3);
        collector rec("rec");
        connect(src.out, rx.rf);
        connect(rx.if_out, rec.in);
        sim.run(2_ms);
        return rec.got;
    };

    const auto flat = run_flat();
    const auto hier = run_hier();
    ASSERT_EQ(flat.size(), hier.size());
    EXPECT_TRUE(flat == hier);
}

// ------------------------------------------------ run_set with composites ---

TEST(hierarchy, two_level_composite_in_parallel_run_set_matches_sequential) {
    auto scen = core::scenario::define(
        "hier_sweep", core::params{{"k1", 2.0}, {"k2", 3.0}},
        [](core::testbench& tb, const core::params& p) {
            auto& src = tb.make<ramp_src>("src");
            auto& rx = tb.make<rx_stack>("rx", p.number("k1"), p.number("k2"));
            auto& sink = tb.make<collector>("sink");
            connect(src.out, rx.x);
            auto& y = connect(rx.y, sink.in);
            tb.probe("y", y);
            tb.set_sample_period(100_us);
            tb.set_stop_time(5_ms);
            tb.measure("last", [&sink] { return sink.got.back(); });
            tb.measure("count", [&sink] { return double(sink.got.size()); });
        });

    auto make_set = [&] {
        return core::run_set(scen)
            .with_grid(core::param_grid().add("k1", {0.5, 2.0}).add("k2", {1.0, 3.0}))
            .set_base_seed(11);
    };
    const auto seq = make_set().set_workers(1).run_all();
    const auto par = make_set().set_workers(4).run_all();
    ASSERT_EQ(seq.size(), 4U);
    ASSERT_EQ(par.size(), 4U);
    EXPECT_EQ(seq.failed_count(), 0U);
    EXPECT_EQ(par.failed_count(), 0U);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(seq[i].times == par[i].times);
        ASSERT_EQ(seq[i].waveforms.size(), par[i].waveforms.size());
        for (std::size_t w = 0; w < seq[i].waveforms.size(); ++w) {
            EXPECT_TRUE(seq[i].waveforms[w] == par[i].waveforms[w]);
        }
        EXPECT_TRUE(seq[i].measurements == par[i].measurements);
    }
}

// ------------------------------------------------------- lib composites -----

TEST(hierarchy, pipeline_adc_composite_matches_monolithic_reference) {
    // Reference: the former monolithic per-sample computation.
    const unsigned stages = 6;
    const double vref = 1.0;
    std::vector<lib::pipeline_stage_params> ps(stages);
    for (unsigned s = 0; s < stages; ++s) {
        ps[s].gain_error = 0.001 * (s + 1);
        ps[s].offset = 0.01 * s;
    }
    auto reference_code = [&](double x) {
        double residue = std::clamp(x, -vref, vref);
        std::vector<int> d(stages);
        for (unsigned s = 0; s < stages; ++s) {
            const double v = residue + ps[s].offset;
            d[s] = v > vref / 4.0 ? 1 : (v < -vref / 4.0 ? -1 : 0);
            const double gain = 2.0 * (1.0 + ps[s].gain_error);
            residue = gain * residue - static_cast<double>(d[s]) * vref *
                                           (1.0 + ps[s].gain_error);
            residue = std::clamp(residue, -2.0 * vref, 2.0 * vref);
        }
        const int last = residue >= 0.0 ? 1 : -1;
        std::int64_t code = 0;
        for (unsigned s = 0; s < stages; ++s) {
            const std::int64_t weight = std::int64_t{1}
                                        << static_cast<std::int64_t>(stages - s);
            code += static_cast<std::int64_t>(d[s]) * weight;
        }
        code += last;
        const std::int64_t max_code = (std::int64_t{1} << (stages + 1)) - 1;
        return std::clamp<std::int64_t>(code, -max_code - 1, max_code);
    };

    de::simulation_context sim;
    struct wave_src : tdf::module {
        tdf::out<double> out;
        double t = 0.0;
        explicit wave_src(const de::module_name& nm) : tdf::module(nm), out("out") {}
        void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
        void processing() override {
            out.write(1.2 * std::sin(t));  // exercises the clamp too
            t += 0.37;
        }
    } src("src");
    lib::pipeline_adc adc("adc", stages, vref);
    adc.set_stage_params(ps);
    struct code_rec : tdf::module {
        tdf::in<std::int64_t> in;
        std::vector<std::int64_t> got;
        explicit code_rec(const de::module_name& nm) : tdf::module(nm), in("in") {}
        void processing() override { got.push_back(in.read()); }
    } rec("rec");
    collector est("est");
    connect(src.out, adc.in);
    connect(adc.code, rec.in);
    connect(adc.analog_estimate, est.in);
    sim.run(2_ms);

    ASSERT_GE(rec.got.size(), 100U);
    double t = 0.0;
    for (std::size_t i = 0; i < rec.got.size(); ++i) {
        EXPECT_EQ(rec.got[i], reference_code(1.2 * std::sin(t))) << "sample " << i;
        t += 0.37;
    }
}

TEST(hierarchy, sigma_delta_adc_composite_tracks_dc_input) {
    de::simulation_context sim;
    lib::waveform_source src("src", sca::util::waveform::dc(0.4));
    src.set_timestep(1.0, de::time_unit::us);
    lib::sigma_delta_adc adc("adc", 2, 1.0, 32);
    collector rec("rec");
    connect(src.out, adc.in);
    connect(adc.out, rec.in);
    sim.run(20_ms);
    ASSERT_GE(rec.got.size(), 100U);
    double sum = 0.0;
    for (std::size_t i = rec.got.size() - 100; i < rec.got.size(); ++i) {
        sum += rec.got[i];
    }
    EXPECT_NEAR(sum / 100.0, 0.4, 0.02);
}
