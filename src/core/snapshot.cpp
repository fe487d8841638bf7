#include "core/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <unordered_map>
#include <utility>

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
// Two stable namespaces identify an event across processes:
//   kind 1: the lazily created timeout event of a process, keyed by the
//           owning process's registration index (its creation time varies,
//           so its position in the context's event list is NOT stable);
//   kind 0: any other event, keyed by (name, occurrence index among
//           same-named non-timeout events in registration order).  Build-time
//           events register deterministically because the scenario factory
//           replays the same construction; per-name occurrence also absorbs
//           lazily created edge events, which restore recreates in hierarchy
//           order rather than first-use order.

struct event_namespace {
    std::unordered_map<const de::event*, std::uint64_t> timeout_owner;
    std::unordered_map<const de::event*, std::uint64_t> occurrence;
    std::map<std::string, std::vector<de::event*>> by_name;
};

event_namespace build_event_namespace(de::simulation_context& ctx) {
    event_namespace ns;
    const auto& procs = ctx.sched().processes();
    for (std::uint64_t i = 0; i < procs.size(); ++i) {
        if (const de::event* t = procs[i]->timeout_event()) ns.timeout_owner[t] = i;
    }
    for (de::event* e : ctx.events()) {
        if (ns.timeout_owner.count(e) != 0) continue;
        auto& same_name = ns.by_name[e->name()];
        ns.occurrence[e] = same_name.size();
        same_name.push_back(e);
    }
    return ns;
}

void write_event_key(util::byte_writer& w, const event_namespace& ns, const de::event& e) {
    auto t = ns.timeout_owner.find(&e);
    if (t != ns.timeout_owner.end()) {
        w.u8(1);
        w.u64(t->second);
        return;
    }
    auto o = ns.occurrence.find(&e);
    util::require(o != ns.occurrence.end(), "snapshot",
                  "event '" + e.name() + "' is not registered with the saved context");
    w.u8(0);
    w.str(e.name());
    w.u64(o->second);
}

de::event& read_event_key(util::byte_reader& r, const event_namespace& ns,
                          const std::vector<de::method_process*>& procs) {
    const std::uint8_t kind = r.u8();
    if (kind == 1) {
        const std::uint64_t idx = r.u64();
        util::require(idx < procs.size(), "snapshot",
                      "timeout-event process index out of range");
        return procs[idx]->ensure_timeout_event();
    }
    util::require(kind == 0, "snapshot", "unknown event key kind");
    const std::string name = r.str();
    const std::uint64_t occurrence = r.u64();
    auto it = ns.by_name.find(name);
    util::require(it != ns.by_name.end() && occurrence < it->second.size(), "snapshot",
                  "the rebuilt model has no event '" + name + "' (occurrence " +
                      std::to_string(occurrence) + ")");
    return *it->second[occurrence];
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
    for (const auto& [at, ev] : pending) {
        util::require(at > sched.now(), "snapshot",
                      "snapshot requires a settled instant: event '" + ev->name() +
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
    w.u64(procs.size());
    for (const de::method_process* p : procs) {
        w.str(p->name());
        w.boolean(p->dynamically_waiting());
        w.u64(p->activation_count());
        w.boolean(p->timeout_event() != nullptr);
        const auto& dyn = p->dynamic_events();
        w.u64(dyn.size());
        for (const de::event* e : dyn) write_event_key(w, ns, *e);
    }

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
        for (const de::method_process* p : subs) {
            // Subscriber identity is the process registration index.
            std::uint64_t idx = 0;
            while (idx < procs.size() && procs[idx] != p) ++idx;
            util::require(idx < procs.size(), "snapshot",
                          "dynamic subscriber of '" + e->name() +
                              "' is not a registered process");
            w.u64(idx);
        }
    }
    // Queue order carries the same-instant firing order; restore replays the
    // entries one by one so equal-time notifications keep it.
    w.u64(pending.size());
    for (const auto& [at, ev] : pending) {
        w.i64(at.value_fs());
        write_event_key(w, ns, *ev);
    }

    // --- TDF clusters -------------------------------------------------------
    const auto& clusters = tdf::registry::of(ctx).clusters();
    w.u64(clusters.size());
    for (const auto& c : clusters) c->save_state(w);

    return w.take();
}

std::unique_ptr<testbench> decode_snapshot(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);

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
    const auto& procs = sched.processes();
    const std::uint64_t n_procs = r.u64();
    util::require(n_procs == procs.size(), "snapshot",
                  "the rebuilt model registered " + std::to_string(procs.size()) +
                      " processes, the snapshot has " + std::to_string(n_procs));

    // First pass: read the records and make sure every saved timeout event
    // exists before any event key is resolved (a process may wait on another
    // process's timeout event only through its own record's key list, which
    // is resolved in the second pass).
    struct saved_process {
        bool dynamic_waiting;
        std::uint64_t activations;
        bool has_timeout;
        std::vector<std::pair<std::uint8_t, std::pair<std::string, std::uint64_t>>> keys;
    };
    std::vector<saved_process> saved;
    saved.reserve(procs.size());
    for (std::size_t i = 0; i < procs.size(); ++i) {
        const std::string name = r.str();
        util::require(name == procs[i]->name(), "snapshot",
                      "process order diverged: snapshot has '" + name +
                          "', rebuilt model has '" + procs[i]->name() + "'");
        saved_process sp;
        sp.dynamic_waiting = r.boolean();
        sp.activations = r.u64();
        sp.has_timeout = r.boolean();
        const std::uint64_t n_keys = r.u64();
        sp.keys.reserve(n_keys);
        for (std::uint64_t k = 0; k < n_keys; ++k) {
            const std::uint8_t kind = r.u8();
            if (kind == 1) {
                sp.keys.push_back({1, {std::string(), r.u64()}});
            } else {
                util::require(kind == 0, "snapshot", "unknown event key kind");
                std::string ev_name = r.str();
                const std::uint64_t occurrence = r.u64();
                sp.keys.push_back({0, {std::move(ev_name), occurrence}});
            }
        }
        saved.push_back(std::move(sp));
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (saved[i].has_timeout) (void)procs[i]->ensure_timeout_event();
    }
    const event_namespace ns = build_event_namespace(ctx);
    auto resolve = [&](std::uint8_t kind, const std::string& name,
                       std::uint64_t index) -> de::event& {
        if (kind == 1) {
            util::require(index < procs.size(), "snapshot",
                          "timeout-event process index out of range");
            return procs[index]->ensure_timeout_event();
        }
        auto it = ns.by_name.find(name);
        util::require(it != ns.by_name.end() && index < it->second.size(), "snapshot",
                      "the rebuilt model has no event '" + name + "' (occurrence " +
                          std::to_string(index) + ")");
        return *it->second[index];
    };

    // --- events -------------------------------------------------------------
    const std::uint64_t n_with_subs = r.u64();
    for (std::uint64_t i = 0; i < n_with_subs; ++i) {
        de::event& e = read_event_key(r, ns, procs);
        const std::uint64_t n_subs = r.u64();
        for (std::uint64_t s = 0; s < n_subs; ++s) {
            const std::uint64_t idx = r.u64();
            util::require(idx < procs.size(), "snapshot",
                          "dynamic subscriber process index out of range");
            e.add_dynamic_subscriber(*procs[idx]);
        }
    }
    const std::uint64_t n_timed = r.u64();
    for (std::uint64_t i = 0; i < n_timed; ++i) {
        const de::time at = de::time::from_fs(r.i64());
        de::event& e = read_event_key(r, ns, procs);
        e.restore_timed(at);
    }

    // Second pass over processes: wait states and the ordered mirror of the
    // events each one is dynamically waiting on.
    for (std::size_t i = 0; i < procs.size(); ++i) {
        procs[i]->restore_dynamic_wait(saved[i].dynamic_waiting);
        procs[i]->restore_activation_count(saved[i].activations);
        for (const auto& [kind, key] : saved[i].keys) {
            procs[i]->restore_dynamic_event(resolve(kind, key.first, key.second));
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

std::unique_ptr<testbench> decode_snapshot(const std::vector<std::uint8_t>& payload) {
    return decode_snapshot(payload.data(), payload.size());
}

// ------------------------------------------------------------ stream level --

void save_snapshot(testbench& tb, std::ostream& os) {
    const std::vector<std::uint8_t> frame =
        wire::pack_frame(wire::msg_type::snapshot_state, encode_snapshot(tb));
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    util::require(os.good(), "snapshot", "snapshot write failed");
}

std::unique_ptr<testbench> resume_snapshot(std::istream& is) {
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
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

// -------------------------------------------------------------- file level --

void save_snapshot(testbench& tb, const std::string& path) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    util::require(os.is_open(), "snapshot", "cannot open '" + path + "' for writing");
    save_snapshot(tb, os);
    os.close();
    util::require(os.good(), "snapshot", "snapshot write to '" + path + "' failed");
}

std::unique_ptr<testbench> resume_snapshot(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    util::require(is.is_open(), "snapshot", "cannot open snapshot file '" + path + "'");
    return resume_snapshot(is);
}

// ----------------------------------------------- testbench / scenario API --
// Implemented here (not in scenario.cpp) so the scenario layer keeps no
// dependency on the snapshot machinery.

void testbench::snapshot(const std::string& path) { save_snapshot(*this, path); }

std::unique_ptr<testbench> scenario::resume(const std::string& path) {
    return resume_snapshot(path);
}

}  // namespace sca::core
