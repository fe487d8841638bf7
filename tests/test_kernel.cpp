// Discrete-event kernel tests: time, events, delta cycles, signals, ports,
// processes, module hierarchy, clocks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernel/clock.hpp"
#include "kernel/context.hpp"
#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/process.hpp"
#include "kernel/signal.hpp"
#include "util/report.hpp"

namespace de = sca::de;
using namespace sca::de::literals;
using de::simulation_context;
using de::event;
using de::module;
using de::module_name;
using de::in;
using de::time_unit;

TEST(de_time, unit_conversions_and_arithmetic) {
    EXPECT_EQ(de::time(1.0, time_unit::ns).value_fs(), 1'000'000);
    EXPECT_EQ((1_us).value_fs(), 1'000'000'000);
    EXPECT_EQ((2_ms + 500_us).value_fs(), de::time(2.5, time_unit::ms).value_fs());
    EXPECT_LT(1_ns, 1_us);
    EXPECT_EQ((10_ns) / (2_ns), 5);
    EXPECT_DOUBLE_EQ((1_ms).to_seconds(), 1e-3);
    EXPECT_EQ((3_ns) * 4, 12_ns);
}

TEST(de_time, printing_picks_best_unit) {
    EXPECT_EQ((5_us).to_string(), "5 us");
    EXPECT_EQ((1500_ps).to_string(), "1500 ps");
    EXPECT_EQ(de::time::zero().to_string(), "0 s");
}

TEST(context, requires_current_context) {
    // No context: object construction must fail cleanly.
    EXPECT_THROW(event e("ev"), sca::util::error);
}

namespace {

/// Counts activations; sensitivity configured by each test.
struct counter_module : module {
    in<bool> clk_in;
    int count = 0;

    explicit counter_module(const module_name& nm) : module(nm), clk_in("clk_in") {
        declare_method("count", [this] { ++count; }).sensitive(clk_in).dont_initialize();
    }
};

}  // namespace

TEST(scheduler, clock_drives_process) {
    simulation_context ctx;
    de::clock clk("clk", 10_ns);
    counter_module mod("mod");
    mod.clk_in.bind(clk.sig());
    ctx.run(100_ns);
    // Edges at 0,5,10,...: value-change events = 2 per period, 21 edges in
    // [0,100] inclusive.
    EXPECT_EQ(mod.count, 21);
}

TEST(scheduler, posedge_only_counting) {
    simulation_context ctx;
    de::clock clk("clk", 10_ns);
    int rises = 0;
    ctx.register_method("rise", [&rises] { ++rises; }).dont_initialize();
    // Rebind sensitivity through the event directly.
    auto& proc = ctx.register_method("rise2", [&rises] { ++rises; });
    proc.dont_initialize();
    proc.make_sensitive(clk.posedge_event());
    ctx.run(95_ns);
    EXPECT_EQ(rises, 10);  // posedges at 0,10,...,90
}

TEST(event, timed_notification_fires_once) {
    simulation_context ctx;
    event ev("ev");
    int fired = 0;
    auto& p = ctx.register_method("watch", [&fired] { ++fired; });
    p.dont_initialize();
    p.make_sensitive(ev);
    ev.notify(5_ns);
    ctx.run(20_ns);
    EXPECT_EQ(fired, 1);
}

TEST(event, earlier_notification_wins) {
    simulation_context ctx;
    event ev("ev");
    std::vector<double> stamps;
    auto& p = ctx.register_method("watch", [&] { stamps.push_back(ctx.now().to_seconds()); });
    p.dont_initialize();
    p.make_sensitive(ev);
    ev.notify(10_ns);
    ev.notify(3_ns);  // earlier: replaces the 10 ns one
    ctx.run(20_ns);
    ASSERT_EQ(stamps.size(), 1U);
    EXPECT_DOUBLE_EQ(stamps[0], 3e-9);
}

TEST(event, later_notification_is_discarded) {
    simulation_context ctx;
    event ev("ev");
    int fired = 0;
    auto& p = ctx.register_method("watch", [&fired] { ++fired; });
    p.dont_initialize();
    p.make_sensitive(ev);
    ev.notify(3_ns);
    ev.notify(10_ns);  // ignored: a 3 ns notification is pending
    ctx.run(20_ns);
    EXPECT_EQ(fired, 1);
}

TEST(event, cancel_stops_pending) {
    simulation_context ctx;
    event ev("ev");
    int fired = 0;
    auto& p = ctx.register_method("watch", [&fired] { ++fired; });
    p.dont_initialize();
    p.make_sensitive(ev);
    ev.notify(5_ns);
    ev.cancel();
    ctx.run(20_ns);
    EXPECT_EQ(fired, 0);
}

TEST(scheduler, same_instant_timed_notifications_fire_in_notification_order) {
    // Probes, cluster re-arms and PWM edges share instants, and the golden
    // traces depend on the order they fire in: first armed, first fired,
    // whether an event notification or a process's own timed wake.
    // pending_timed_events() is what a snapshot saves, so it must list the
    // live entries in exactly that order.
    simulation_context ctx;
    event a("a"), b("b"), c("c"), d("d"), e("e");
    std::vector<std::string> ran;
    for (event* ev : {&a, &b, &c, &d, &e}) {
        auto& p = ctx.register_method(ev->name() + ".watch", [&ran, &ctx, ev] {
            ran.push_back(ev->name() + "@" + ctx.now().to_string());
        });
        p.dont_initialize();
        p.make_sensitive(*ev);
    }
    // Two processes woken by their own next_trigger(delay).
    const auto waker = [&](const std::string& name) -> de::method_process& {
        auto& p = ctx.register_method(
            name, [&ran, &ctx, name] { ran.push_back(name + "@" + ctx.now().to_string()); });
        p.dont_initialize();
        return p;
    };
    de::method_process& w1 = waker("w1");
    de::method_process& w2 = waker("w2");
    c.notify(10_ns);
    w1.next_trigger(10_ns);
    a.notify(10_ns);
    e.notify(10_ns);
    w2.next_trigger(30_ns);
    d.notify(30_ns);
    b.notify(10_ns);
    w2.next_trigger(10_ns);  // supersedes the pending 30 ns wake, after b
    d.notify(10_ns);         // supersedes the pending 30 ns notification, after w2
    e.cancel();              // never fires
    a.cancel();
    a.notify(10_ns);  // the new notification queues last

    const auto pending = ctx.sched().pending_timed_events();
    const std::vector<std::string> firing_order{"c", "w1", "b", "w2", "d", "a"};
    ASSERT_EQ(pending.size(), firing_order.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
        EXPECT_EQ(pending[i].at, 10_ns) << i;
        EXPECT_EQ(pending[i].ev != nullptr ? pending[i].ev->name() : pending[i].proc->name(),
                  firing_order[i])
            << i;
    }

    ctx.run(50_ns);
    // Fired c, w1, b, w2, d, a at 10 ns.  The runnable set is a LIFO stack,
    // so the processes ran in reverse; the stale 30 ns entries did not fire
    // d or w2 again.
    EXPECT_EQ(ran, (std::vector<std::string>{"a@10 ns", "d@10 ns", "w2@10 ns", "b@10 ns",
                                             "w1@10 ns", "c@10 ns"}));
    EXPECT_EQ(ctx.sched().timed_notification_count(), 10U);
}

namespace {

/// Logs "<name>@<time>" when the pre-timestep stage calls it, then runs an
/// optional action (which may create activity).
struct stage_logger final : de::pre_timestep_callback {
    stage_logger(std::string name, simulation_context& ctx, std::vector<std::string>& log)
        : name(std::move(name)), ctx(&ctx), log(&log) {}
    void pre_timestep() override {
        log->push_back(name + "@" + ctx->now().to_string());
        if (action) action();
    }
    std::string name;
    simulation_context* ctx;
    std::vector<std::string>* log;
    std::function<void()> action;
};

}  // namespace

TEST(scheduler, pre_timestep_stage_runs_once_the_instant_settles) {
    // SC_PRE_TIMESTEP: requested callbacks run after the instant's last delta
    // cycle, last-requested first, before time advances; activity they
    // create runs the evaluate/update loop again.
    simulation_context ctx;
    de::signal<int> level("level", 0);
    std::vector<std::string> log;
    stage_logger first("first", ctx, log), second("second", ctx, log);
    second.action = [&] { level.write(level.read() + 1); };
    auto& reader = ctx.register_method(
        "reader", [&] { log.push_back("reader@" + ctx.now().to_string()); });
    reader.dont_initialize();
    reader.make_sensitive(level.value_changed_event());
    auto& writer = ctx.register_method("writer", [&] {
        level.write(level.read() + 1);
        ctx.sched().request_pre_timestep(first);
        ctx.sched().request_pre_timestep(second);
        ctx.next_trigger(10_ns);
    });
    (void)writer;

    ctx.run(15_ns);
    EXPECT_EQ(log, (std::vector<std::string>{"reader@0 s", "second@0 s", "first@0 s",
                                             "reader@0 s", "reader@10 ns", "second@10 ns",
                                             "first@10 ns", "reader@10 ns"}));
    EXPECT_TRUE(ctx.sched().settled());
    EXPECT_EQ(ctx.sched().delta_count(), 4U);
}

TEST(signal, update_semantics_are_deferred) {
    simulation_context ctx;
    de::signal<int> sig("sig", 1);
    int seen_during_eval = -1;
    auto& writer = ctx.register_method("writer", [&] {
        sig.write(42);
        seen_during_eval = sig.read();  // old value: update is deferred
    });
    (void)writer;
    ctx.run(1_ns);
    EXPECT_EQ(seen_during_eval, 1);
    EXPECT_EQ(sig.read(), 42);
}

TEST(signal, value_changed_fires_only_on_change) {
    simulation_context ctx;
    de::signal<int> sig("sig", 7);
    int changes = 0;
    auto& p = ctx.register_method("watch", [&changes] { ++changes; });
    p.dont_initialize();
    p.make_sensitive(sig.value_changed_event());
    auto& w = ctx.register_method("write", [&] {
        sig.write(7);  // same value: no event
        ctx.next_trigger(5_ns);
    });
    (void)w;
    ctx.run(2_ns);
    EXPECT_EQ(changes, 0);
}

TEST(signal, delta_cycle_counts) {
    simulation_context ctx;
    de::signal<int> a("a", 0);
    de::signal<int> b("b", 0);
    // b follows a one delta later.
    auto& follow = ctx.register_method("follow", [&] { b.write(a.read()); });
    follow.make_sensitive(a.value_changed_event());
    auto& stim = ctx.register_method("stim", [&] { a.write(1); });
    stim.dont_initialize();
    event kick("kick");
    stim.make_sensitive(kick);
    kick.notify(1_ns);
    ctx.run(2_ns);
    EXPECT_EQ(b.read(), 1);
}

namespace {

struct child_module : module {
    de::signal<int> s;
    explicit child_module(const module_name& nm) : module(nm), s("s") {}
};

struct parent_module : module {
    child_module child;
    explicit parent_module(const module_name& nm) : module(nm), child("child") {}
};

}  // namespace

TEST(hierarchy, names_are_hierarchical) {
    simulation_context ctx;
    parent_module top("top");
    EXPECT_EQ(top.name(), "top");
    EXPECT_EQ(top.child.name(), "top.child");
    EXPECT_EQ(top.child.s.name(), "top.child.s");
    EXPECT_EQ(ctx.find_object("top.child.s"), &top.child.s);
    EXPECT_EQ(top.child.parent(), &top);
}

TEST(hierarchy, port_to_port_binding_resolves) {
    simulation_context ctx;
    de::signal<double> sig("sig", 3.25);
    in<double> outer("outer");
    in<double> inner("inner");
    outer.bind(sig);
    inner.bind(outer);  // hierarchical chain
    ctx.elaborate();
    EXPECT_DOUBLE_EQ(inner.read(), 3.25);
}

namespace {

template <typename Fn>
std::string error_message(Fn&& fn) {
    try {
        fn();
    } catch (const sca::util::error& e) {
        return e.what();
    }
    return "no error";
}

}  // namespace

TEST(hierarchy, typed_port_access_follows_chains_and_rebinding) {
    // Typed ports check their signal's type once and keep it: reads through
    // a port -> port -> port -> signal chain must see the live signal, a
    // refused rebinding must leave the kept signal in place, and an unbound
    // or mistyped port must keep failing with its named error.
    simulation_context ctx;
    de::signal<double> sig("sig", 1.5);
    de::signal<double> other("other", -4.0);
    de::signal<double> wrong_type("wrong_type", 0.0);
    in<double> outer("outer");
    in<double> middle("middle");
    in<double> inner("inner");
    in<int> mistyped("mistyped");
    de::out<double> writer("writer");
    outer.bind(sig);
    middle.bind(outer);
    inner.bind(middle);
    mistyped.bind(wrong_type);
    writer.bind(other);

    // Unresolved before elaboration: the named error, and nothing kept.
    EXPECT_EQ(error_message([&] { (void)inner.read(); }), "inner: read of unbound port");
    ctx.elaborate();
    EXPECT_DOUBLE_EQ(inner.read(), 1.5);
    sig.initialize(2.5);
    EXPECT_DOUBLE_EQ(inner.read(), 2.5);
    EXPECT_DOUBLE_EQ(outer.read(), 2.5);

    EXPECT_THROW(outer.bind(other), sca::util::error);
    EXPECT_DOUBLE_EQ(outer.read(), 2.5);
    EXPECT_DOUBLE_EQ(inner.read(), 2.5);
    writer.write(3.0);
    EXPECT_DOUBLE_EQ(writer.read(), -4.0);  // deferred until the update phase

    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(error_message([&] { (void)mistyped.read(); }),
                  "mistyped: read of unbound port");
    }
    in<double> dangling("dangling");
    de::out<double> nowhere("nowhere");
    EXPECT_EQ(error_message([&] { (void)dangling.read(); }), "dangling: read of unbound port");
    EXPECT_EQ(error_message([&] { nowhere.write(1.0); }), "nowhere: write to unbound port");
}

TEST(hierarchy, de_port_binds_exactly_once) {
    // A second bind throws naming the port, whether the first bound a signal
    // or a parent port, and the first binding stays in force.
    simulation_context ctx;
    de::signal<double> s1("s1", 1.0);
    de::signal<double> s2("s2", 2.0);
    in<double> outer("outer");
    outer.bind(s2);

    in<double> twice("twice");
    twice.bind(s1);
    EXPECT_EQ(error_message([&] { twice.bind(s2); }),
              "twice: DE port is already bound (to s1); a port binds exactly one signal or "
              "parent port");

    in<double> stale("stale");
    stale.bind(s1);
    EXPECT_EQ(error_message([&] { stale.bind(outer); }),
              "stale: DE port is already bound (to s1); a port binds exactly one signal or "
              "parent port");

    in<double> chained("chained");
    chained.bind(outer);
    EXPECT_EQ(error_message([&] { chained.bind(s1); }),
              "chained: DE port is already bound (to outer); a port binds exactly one signal "
              "or parent port");

    ctx.elaborate();
    EXPECT_DOUBLE_EQ(twice.read(), 1.0);
    EXPECT_DOUBLE_EQ(stale.read(), 1.0);
    EXPECT_DOUBLE_EQ(chained.read(), 2.0);
}

TEST(hierarchy, unbound_port_fails_elaboration) {
    simulation_context ctx;
    in<double> dangling("dangling");
    EXPECT_THROW(ctx.elaborate(), sca::util::error);
}

TEST(hierarchy, optional_port_may_stay_unbound) {
    simulation_context ctx;
    in<double> maybe("maybe");
    maybe.set_optional();
    EXPECT_NO_THROW(ctx.elaborate());
}

TEST(process, next_trigger_timeout_repeats) {
    simulation_context ctx;
    int ticks = 0;
    ctx.register_method("ticker", [&] {
        ++ticks;
        ctx.next_trigger(10_ns);
    });
    ctx.run(95_ns);
    EXPECT_EQ(ticks, 10);  // t = 0, 10, ..., 90
}

TEST(process, event_before_the_timeout_ends_the_wait) {
    // next_trigger(delay, e): whichever comes first wakes the process once.
    simulation_context ctx;
    event e("e");
    std::vector<std::string> ran;
    ctx.register_method("waiter", [&] {
        ran.push_back(ctx.now().to_string());
        if (ran.size() == 1) ctx.running_process()->next_trigger(20_ns, e);
    });
    e.notify(5_ns);
    ctx.run(50_ns);
    EXPECT_EQ(ran, (std::vector<std::string>{"0 s", "5 ns"}));  // not again at 20 ns
}

TEST(process, timeout_before_the_event_drops_the_subscription) {
    simulation_context ctx;
    event e("e");
    std::vector<std::string> ran;
    ctx.register_method("waiter", [&] {
        ran.push_back(ctx.now().to_string());
        if (ran.size() == 1) ctx.running_process()->next_trigger(20_ns, e);
    });
    e.notify(30_ns);
    ctx.run(25_ns);
    EXPECT_EQ(ran, (std::vector<std::string>{"0 s", "20 ns"}));
    EXPECT_TRUE(e.dynamic_subscribers().empty());
    ctx.run(25_ns);
    EXPECT_EQ(ran.size(), 2U);  // e fired at 30 ns without waking it
}

TEST(process, superseded_timed_wake_does_not_fire) {
    // A newer next_trigger replaces the pending one, earlier or later.
    for (const bool earlier_second : {true, false}) {
        simulation_context ctx;
        std::vector<std::string> ran;
        ctx.register_method("waiter", [&] {
            ran.push_back(ctx.now().to_string());
            if (ran.size() > 1) return;
            ctx.next_trigger(earlier_second ? 30_ns : 10_ns);
            ctx.next_trigger(earlier_second ? 10_ns : 30_ns);
        });
        ctx.run(50_ns);
        EXPECT_EQ(ran, (std::vector<std::string>{
                           "0 s", earlier_second ? "10 ns" : "30 ns"}))
            << earlier_second;
        EXPECT_EQ(ctx.sched().timed_notification_count(), 2U);
    }
}

TEST(process, zero_delay_trigger_wakes_in_the_next_delta_cycle) {
    // next_trigger(time::zero()) is a delta wake: it runs again at the same
    // instant, one delta cycle later, after a delta notification made before
    // it in that cycle made its watcher runnable (the runnable set is LIFO).
    simulation_context ctx;
    event ev("ev");
    std::vector<std::string> ran;
    auto& watcher = ctx.register_method("watch", [&] {
        ran.push_back("watch/" + std::to_string(ctx.sched().delta_count()));
    });
    watcher.dont_initialize();
    watcher.make_sensitive(ev);
    ctx.register_method("self", [&] {
        ran.push_back("self/" + std::to_string(ctx.sched().delta_count()));
        if (ctx.sched().delta_count() < 2) {
            ev.notify_delta();
            ctx.next_trigger(de::time::zero());
        }
    });
    ctx.run(10_ns);
    EXPECT_EQ(ran, (std::vector<std::string>{"self/0", "self/1", "watch/1", "self/2",
                                             "watch/2"}));
    EXPECT_EQ(ctx.now(), 10_ns);
    EXPECT_EQ(ctx.sched().delta_count(), 2U);
    EXPECT_EQ(ctx.sched().timed_notification_count(), 0U);
}

namespace {

/// Re-arms itself every microsecond and counts its wakes in `*wakes`, which
/// outlives the module.
struct pulse_module : module {
    int* wakes;
    pulse_module(const module_name& nm, int& w) : module(nm), wakes(&w) {
        declare_method("step", [this] {
            ++*wakes;
            next_trigger(1_us);
        });
    }
};

/// Counts, in `*hits`, the changes of a signal it does not own.
struct watcher_module : module {
    int* hits;
    watcher_module(const module_name& nm, de::signal<int>& level, int& h)
        : module(nm), hits(&h) {
        declare_method("watch", [this] { ++*hits; })
            .sensitive(level.value_changed_event())
            .dont_initialize();
    }
};

}  // namespace

TEST(lifetime, destroyed_module_with_a_pending_wake_never_runs_again) {
    simulation_context ctx;
    int wakes = 0;
    auto pulse = std::make_unique<pulse_module>("pulse", wakes);
    ctx.run(3_us);
    EXPECT_EQ(wakes, 4);  // 0, 1, 2 and 3 us; the 4 us wake is pending
    pulse.reset();
    EXPECT_TRUE(ctx.sched().processes().empty());  // retired with its module
    ctx.run(5_us);
    EXPECT_EQ(wakes, 4);
    EXPECT_TRUE(ctx.sched().idle());
}

TEST(lifetime, destroyed_module_leaves_the_signals_it_watched) {
    simulation_context ctx;
    de::signal<int> level("level", 0);
    ctx.register_method("writer", [&] {
        level.write(level.read() + 1);
        ctx.next_trigger(1_us);
    });
    int hits = 0;
    auto watcher = std::make_unique<watcher_module>("watcher", level, hits);
    ctx.run(2_us);
    EXPECT_EQ(hits, 3);  // the writes at 0, 1 and 2 us
    watcher.reset();
    ctx.run(2_us);
    EXPECT_EQ(hits, 3);
    EXPECT_EQ(level.read(), 5);
}

TEST(lifetime, destroyed_event_leaves_the_queues) {
    simulation_context ctx;
    int fired = 0;
    auto& p = ctx.register_method("watch", [&fired] { ++fired; });
    p.dont_initialize();
    {
        event timed("timed");
        p.make_sensitive(timed);
        timed.notify(5_ns);
        event stale("stale");
        stale.notify(7_ns);
        stale.cancel();  // a cancelled entry names the event until popped
    }
    EXPECT_EQ(ctx.sched().next_event_time(), de::time::max());
    {
        event delta("delta");
        p.make_sensitive(delta);
        delta.notify_delta();
    }
    EXPECT_TRUE(ctx.sched().settled());
    ctx.run(10_ns);
    EXPECT_EQ(fired, 0);
}

TEST(process, dynamic_trigger_overrides_static_once) {
    simulation_context ctx;
    de::clock clk("clk", 10_ns);
    int count = 0;
    bool first = true;
    auto& p = ctx.register_method("mixed", [&] {
        ++count;
        if (first) {
            first = false;
            ctx.next_trigger(35_ns);  // skip several de::clock edges
        }
    });
    p.make_sensitive(clk.posedge_event());
    ctx.run(100_ns);
    // Runs at t=0 (init), then 35ns (dynamic), then every posedge 40..100.
    EXPECT_EQ(count, 2 + 7);
}

TEST(clock_gen, duty_cycle_and_start) {
    simulation_context ctx;
    de::clock clk("clk", 10_ns, 0.3, 5_ns, true);
    EXPECT_FALSE(clk.read());
    ctx.run(5_ns);
    EXPECT_TRUE(clk.read());  // first rising edge at 5 ns
    ctx.run(3_ns);            // 8 ns: high phase is 3 ns
    EXPECT_FALSE(clk.read());
    ctx.run(7_ns);  // 15 ns: next rising edge
    EXPECT_TRUE(clk.read());
}

TEST(clock_gen, rejects_bad_parameters) {
    simulation_context ctx;
    EXPECT_THROW(de::clock("bad", de::time::zero()), sca::util::error);
    EXPECT_THROW(de::clock("bad2", 10_ns, 1.5), sca::util::error);
}

TEST(scheduler, activation_counts_are_tracked) {
    simulation_context ctx;
    auto& p = ctx.register_method("tick", [&] { ctx.next_trigger(1_ns); });
    ctx.run(10_ns);
    EXPECT_EQ(p.activation_count(), 11U);
}

TEST(context, run_to_completion_drains_all_events) {
    simulation_context ctx;
    event ev("ev");
    int fired = 0;
    auto& p = ctx.register_method("watch", [&fired] { ++fired; });
    p.dont_initialize();
    p.make_sensitive(ev);
    ev.notify(1_ms);
    ctx.run_to_completion();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(ctx.now(), 1_ms);
}

TEST(context, two_contexts_alive_at_once_stay_isolated) {
    // The multi-run engine keeps several simulations alive in one process;
    // the kernel contract is that contexts interleaved on one thread never
    // observe each other's objects, clocks, or time.
    simulation_context ctx_a;
    de::clock clk_a("clk", 10_ns);
    counter_module mod_a("mod");
    mod_a.clk_in.bind(clk_a.sig());

    simulation_context ctx_b;  // now current: objects below land in B
    de::clock clk_b("clk", 20_ns);
    counter_module mod_b("mod");
    mod_b.clk_in.bind(clk_b.sig());

    // Same hierarchical names resolve per context, to different objects.
    EXPECT_EQ(ctx_a.find_object("mod"), &mod_a);
    EXPECT_EQ(ctx_b.find_object("mod"), &mod_b);
    EXPECT_NE(ctx_a.find_object("clk"), ctx_b.find_object("clk"));

    // Interleave runs: each context advances its own scheduler only.
    ctx_a.make_current();
    ctx_a.run(100_ns);
    ctx_b.make_current();
    ctx_b.run(100_ns);
    ctx_a.make_current();
    ctx_a.run(100_ns);

    EXPECT_EQ(ctx_a.now(), 200_ns);
    EXPECT_EQ(ctx_b.now(), 100_ns);
    // A saw 2 edges per 10 ns period over 200 ns (+1 for the t=0 edge);
    // B half the rate over half the time.
    EXPECT_EQ(mod_a.count, 41);
    EXPECT_EQ(mod_b.count, 11);
}
