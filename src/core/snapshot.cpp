#include "core/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <unordered_map>

#include "core/run_protocol.hpp"
#include "core/scenario.hpp"
#include "kernel/context.hpp"
#include "kernel/event.hpp"
#include "kernel/object.hpp"
#include "kernel/process.hpp"
#include "kernel/scheduler.hpp"
#include "tdf/cluster.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"
#include "util/telemetry.hpp"
#include "util/trace_export.hpp"

namespace sca::core {

namespace {

// ----------------------------------------------------- structural identity --

/// Fingerprint of the model *shape*: scenario, parameters, every object's
/// full hierarchical name and kind, every process name (in registration
/// order).  Live state — signal values, cluster timesteps, solver history —
/// is deliberately excluded: the fingerprint must match between the saved
/// model mid-run and the freshly rebuilt one.
std::uint32_t structural_fingerprint(testbench& tb) {
    util::byte_writer w;
    w.str(tb.name());
    wire::put_params(w, tb.parameters());
    de::simulation_context& ctx = tb.context();
    for (const de::object* o : ctx.hierarchy()) {
        w.str(o->name());
        w.str(o->kind());
    }
    for (const de::method_process* p : ctx.sched().processes()) w.str(p->name());
    const std::vector<std::uint8_t>& bytes = w.bytes();
    return util::fnv1a_32(bytes.data(), bytes.size());
}

// ----------------------------------------------------------- event identity --
// A saved event is keyed by kind 0, its name and its occurrence index among
// same-named events in registration order.  Build-time events register
// deterministically because the scenario factory replays the same
// construction; per-name occurrence also absorbs lazily created edge events,
// which restore recreates in hierarchy order rather than first-use order.
// A timed-queue entry may instead be a process's own wake: kind 1 and the
// process's registration index.

struct event_namespace {
    std::unordered_map<const de::event*, std::uint64_t> occurrence;
    std::map<std::string, std::vector<de::event*>> by_name;
};

event_namespace build_event_namespace(de::simulation_context& ctx) {
    event_namespace ns;
    for (de::event* e : ctx.events()) {
        auto& same_name = ns.by_name[e->name()];
        ns.occurrence[e] = same_name.size();
        same_name.push_back(e);
    }
    return ns;
}

void write_event_key(util::byte_writer& w, const event_namespace& ns, const de::event& e) {
    auto o = ns.occurrence.find(&e);
    util::require(o != ns.occurrence.end(), "snapshot",
                  "event '" + e.name() + "' is not registered with the saved context");
    w.u8(0);
    w.str(e.name());
    w.u64(o->second);
}

/// The event named by a kind-0 key whose kind byte has been read.
de::event& read_event_name(util::byte_reader& r, const event_namespace& ns) {
    const std::string name = r.str();
    const std::uint64_t occurrence = r.u64();
    auto it = ns.by_name.find(name);
    util::require(it != ns.by_name.end() && occurrence < it->second.size(), "snapshot",
                  "the rebuilt model has no event '" + name + "' (occurrence " +
                      std::to_string(occurrence) + ")");
    return *it->second[occurrence];
}

de::event& read_event_key(util::byte_reader& r, const event_namespace& ns) {
    util::require(r.u8() == 0, "snapshot", "unknown event key kind");
    return read_event_name(r, ns);
}

de::method_process& read_process_index(util::byte_reader& r,
                                       const std::vector<de::method_process*>& procs) {
    const std::uint64_t idx = r.u64();
    util::require(idx < procs.size(), "snapshot", "process index out of range");
    return *procs[idx];
}

// ------------------------------------------------------------------- save --

/// Objects that carry snapshot state, in hierarchy pre-order (parents before
/// children, so a dae_module overlays its equation values before its
/// components overlay their own private state).
std::vector<de::object*> stateful_objects(de::simulation_context& ctx) {
    std::vector<de::object*> out;
    for (de::object* o : ctx.hierarchy()) {
        if (o->has_snapshot_state()) out.push_back(o);
    }
    return out;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(testbench& tb) {
    tb.activate();
    de::simulation_context& ctx = tb.context();
    de::scheduler& sched = ctx.sched();
    SCA_SCOPED_TIMER(&ctx.metrics().get_histogram("time.snapshot.save_s"));
    SCA_TRACE_SPAN_T(&ctx.tracer(), "snapshot.save", "snapshot", sched.now().to_seconds());

    // A snapshot is only meaningful at a settled point: run() has returned,
    // every same-instant notification is delivered, and the only pending
    // activity is strictly in the future.
    util::require(ctx.elaborated(), "snapshot",
                  "snapshot requires an elaborated simulation");
    util::require(sched.initialized(), "snapshot",
                  "snapshot requires a simulation that has run at least once");
    util::require(sched.settled(), "snapshot",
                  "snapshot requires a settled instant (run() must have returned)");

    const auto names = scenario::names();
    util::require(std::find(names.begin(), names.end(), tb.name()) != names.end(),
                  "snapshot",
                  "testbench '" + tb.name() +
                      "' was not built from a registered scenario; resume could "
                      "not rebuild it");

    const event_namespace ns = build_event_namespace(ctx);
    const auto pending = sched.pending_timed_events();
    for (const auto& entry : pending) {
        util::require(entry.at > sched.now(), "snapshot",
                      "snapshot requires a settled instant: '" +
                          (entry.ev != nullptr ? entry.ev->name() : entry.proc->name()) +
                          "' is still pending at the current time");
    }

    util::byte_writer w;
    w.u32(wire::k_format_version);
    w.str(tb.name());
    wire::put_params(w, tb.parameters());
    w.u32(structural_fingerprint(tb));

    // --- kernel clock & counters -------------------------------------------
    w.i64(sched.now().value_fs());
    w.u64(sched.delta_count());
    w.u64(sched.timed_notification_count());

    // --- object state (hierarchy pre-order) --------------------------------
    const auto objects = stateful_objects(ctx);
    w.u64(objects.size());
    for (const de::object* o : objects) {
        w.str(o->name());
        w.str(o->kind());
        o->save_state(w);
    }

    // --- processes (registration order) ------------------------------------
    const auto& procs = sched.processes();
    std::unordered_map<const de::method_process*, std::uint64_t> proc_index;
    w.u64(procs.size());
    for (const de::method_process* p : procs) {
        proc_index.emplace(p, proc_index.size());
        w.str(p->name());
        w.boolean(p->dynamically_waiting());
        w.u64(p->activation_count());
        const auto& dyn = p->dynamic_events();
        w.u64(dyn.size());
        for (const de::event* e : dyn) write_event_key(w, ns, *e);
    }
    // A process's identity is its registration index.
    const auto write_process_index = [&](const de::method_process& p) {
        auto it = proc_index.find(&p);
        util::require(it != proc_index.end(), "snapshot",
                      "process '" + p.name() + "' is not registered with the saved context");
        w.u64(it->second);
    };

    // --- events: dynamic subscriber lists, then the live timed queue -------
    std::vector<const de::event*> with_subs;
    for (const de::event* e : ctx.events()) {
        if (!e->dynamic_subscribers().empty()) with_subs.push_back(e);
    }
    w.u64(with_subs.size());
    for (const de::event* e : with_subs) {
        write_event_key(w, ns, *e);
        const auto& subs = e->dynamic_subscribers();
        w.u64(subs.size());
        for (const de::method_process* p : subs) write_process_index(*p);
    }
    // Queue order carries the same-instant firing order; restore replays the
    // entries one by one so equal-time notifications and wakes keep it.
    w.u64(pending.size());
    for (const auto& entry : pending) {
        w.i64(entry.at.value_fs());
        if (entry.ev != nullptr) {
            write_event_key(w, ns, *entry.ev);
        } else {
            w.u8(1);
            write_process_index(*entry.proc);
        }
    }

    // --- TDF clusters -------------------------------------------------------
    const auto& clusters = tdf::registry::of(ctx).clusters();
    w.u64(clusters.size());
    for (const auto& c : clusters) c->save_state(w);

    return w.take();
}

std::unique_ptr<testbench> decode_snapshot(const std::vector<std::uint8_t>& payload) {
    util::byte_reader r(payload);

    wire::require_format_version(r.u32(), "snapshot");
    const std::string scenario_name = r.str();
    const params p = wire::get_params(r);
    const std::uint32_t saved_fingerprint = r.u32();

    // Rebuild the model through the scenario factory, replicate the first
    // run()'s pre-advance steps (probe recorder registration), elaborate —
    // and only then check that the rebuilt shape is the saved shape.
    auto tb = scenario::find(scenario_name).build(p);
    tb->attach_trace_for_resume();
    tb->elaborate();
    util::require(structural_fingerprint(*tb) == saved_fingerprint, "snapshot",
                  "structural fingerprint mismatch: scenario '" + scenario_name +
                      "' rebuilt a different model than the one saved; refusing "
                      "to overlay state");

    de::simulation_context& ctx = tb->context();
    de::scheduler& sched = ctx.sched();
    SCA_SCOPED_TIMER(&ctx.metrics().get_histogram("time.snapshot.restore_s"));
    SCA_TRACE_SPAN(&ctx.tracer(), "snapshot.restore", "snapshot");

    // --- kernel clock & counters -------------------------------------------
    const de::time now = de::time::from_fs(r.i64());
    const std::uint64_t delta_count = r.u64();
    const std::uint64_t timed_notifications = r.u64();
    sched.begin_restore(now);

    // --- object state (hierarchy pre-order) --------------------------------
    const auto objects = stateful_objects(ctx);
    const std::uint64_t n_objects = r.u64();
    util::require(n_objects == objects.size(), "snapshot",
                  "the rebuilt model has " + std::to_string(objects.size()) +
                      " stateful objects, the snapshot " + std::to_string(n_objects));
    for (de::object* o : objects) {
        const std::string name = r.str();
        const std::string kind = r.str();
        util::require(name == o->name() && kind == o->kind(), "snapshot",
                      "object walk diverged: snapshot has '" + name + "' (" + kind +
                          "), rebuilt model has '" + o->name() + "' (" + o->kind() +
                          ")");
        o->restore_state(r);
    }

    // --- processes ----------------------------------------------------------
    // Event keys resolve against the events the rebuilt model has now.
    const auto& procs = sched.processes();
    const std::uint64_t n_procs = r.u64();
    util::require(n_procs == procs.size(), "snapshot",
                  "the rebuilt model registered " + std::to_string(procs.size()) +
                      " processes, the snapshot has " + std::to_string(n_procs));
    const event_namespace ns = build_event_namespace(ctx);
    for (de::method_process* p : procs) {
        const std::string name = r.str();
        util::require(name == p->name(), "snapshot",
                      "process order diverged: snapshot has '" + name +
                          "', rebuilt model has '" + p->name() + "'");
        p->restore_dynamic_wait(r.boolean());
        p->restore_activation_count(r.u64());
        // Each key is at least a kind byte and a u64.
        const std::uint64_t n_keys = r.count64(9);
        for (std::uint64_t k = 0; k < n_keys; ++k) {
            p->restore_dynamic_event(read_event_key(r, ns));
        }
    }

    // --- events -------------------------------------------------------------
    const std::uint64_t n_with_subs = r.u64();
    for (std::uint64_t i = 0; i < n_with_subs; ++i) {
        de::event& e = read_event_key(r, ns);
        const std::uint64_t n_subs = r.u64();
        for (std::uint64_t s = 0; s < n_subs; ++s) {
            e.add_dynamic_subscriber(read_process_index(r, procs));
        }
    }
    const std::uint64_t n_timed = r.u64();
    for (std::uint64_t i = 0; i < n_timed; ++i) {
        const de::time at = de::time::from_fs(r.i64());
        const std::uint8_t kind = r.u8();
        if (kind == 1) {
            sched.queue_timed_wake(read_process_index(r, procs), at);
        } else {
            util::require(kind == 0, "snapshot", "unknown event key kind");
            read_event_name(r, ns).restore_timed(at);
        }
    }

    // --- TDF clusters -------------------------------------------------------
    const auto& clusters = tdf::registry::of(ctx).clusters();
    const std::uint64_t n_clusters = r.u64();
    util::require(n_clusters == clusters.size(), "snapshot",
                  "the rebuilt model has " + std::to_string(clusters.size()) +
                      " TDF clusters, the snapshot " + std::to_string(n_clusters));
    for (const auto& c : clusters) c->restore_state(r);

    sched.finish_restore(delta_count, timed_notifications);
    util::require(r.at_end(), "snapshot", "trailing bytes after snapshot payload");
    return tb;
}

// ----------------------------------------------- testbench / scenario API --
// Implemented here (not in scenario.cpp) so the scenario layer keeps no
// dependency on the snapshot machinery.

void testbench::snapshot(const std::string& path) {
    const std::vector<std::uint8_t> frame =
        wire::pack_frame(wire::msg_type::snapshot_state, encode_snapshot(*this));
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    util::require(os.is_open(), "snapshot", "cannot open '" + path + "' for writing");
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    os.close();
    util::require(os.good(), "snapshot", "snapshot write to '" + path + "' failed");
}

std::unique_ptr<testbench> scenario::resume(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    util::require(is.is_open(), "snapshot", "cannot open snapshot file '" + path + "'");
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                          std::istreambuf_iterator<char>());
    std::size_t offset = 0;
    wire::frame f;
    util::require(wire::unpack_frame(bytes.data(), bytes.size(), offset, f), "snapshot",
                  "snapshot file is empty");
    util::require(f.type == wire::msg_type::snapshot_state, "snapshot",
                  "not a snapshot file (unexpected frame type)");
    util::require(offset == bytes.size(), "snapshot",
                  "trailing bytes after the snapshot frame");
    return decode_snapshot(f.payload);
}

}  // namespace sca::core
