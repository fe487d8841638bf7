#include "tdf/cluster.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <unordered_set>

#include "kernel/process.hpp"
#include "kernel/signal.hpp"
#include "tdf/dae_module.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"
#include "util/trace_export.hpp"

namespace sca::tdf {

namespace {

/// The strongest DE coupling of the bound DE ports below `o` (converter
/// ports are members of the module, so they appear in its object subtree).
de_coupling subtree_de_coupling(const de::object* o) {
    de_coupling c = de_coupling::none;
    for (const de::object* child : o->children()) {
        if (const auto* p = dynamic_cast<const de::port_base*>(child);
            p != nullptr && p->bound()) {
            c = std::max(c, p->is_output() ? de_coupling::writes : de_coupling::reads);
        }
        c = std::max(c, subtree_de_coupling(child));
    }
    return c;
}

}  // namespace

cluster::cluster(std::vector<module*> modules) : modules_(std::move(modules)) {
    // Collect the signals touched by member ports (unique, writer required),
    // in first-seen order: ring allocation and snapshots follow it.
    std::unordered_set<const signal_base*> seen;
    for (module* m : modules_) {
        for (port_base* p : m->ports()) {
            signal_base* s = p->bound_signal();
            util::require(s != nullptr, p->name(), "TDF port is unbound");
            if (seen.insert(s).second) signals_.push_back(s);
        }
    }
    for (signal_base* s : signals_) {
        util::require(s->writer() != nullptr, s->name(), "TDF signal has no writer");
    }
}

void cluster::compute_repetitions() {
    std::map<module*, std::size_t> index;
    for (std::size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;

    std::vector<rate_edge> edges;
    for (signal_base* s : signals_) {
        const std::size_t from = index.at(s->writer()->owner());
        for (port_base* r : s->readers()) {
            edges.push_back({from, index.at(r->owner()), s->writer()->rate(), r->rate()});
        }
    }
    const auto reps = repetition_vector(modules_.size(), edges);
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->set_repetitions(reps[i]);
    }
}

void cluster::resolve_timesteps() {
    // Collect timestep anchors: module-level requests and port-level requests
    // (a port request anchors its owner at rate * port_timestep).
    period_ = de::time::zero();
    const std::string* anchor_name = nullptr;  // a module's or port's own name
    auto consider = [&](const de::time& t_module, module& m, const std::string& who) {
        const de::time tc = t_module * static_cast<std::int64_t>(m.repetitions());
        if (period_ == de::time::zero()) {
            period_ = tc;
            anchor_name = &who;
        } else if (period_ != tc) {
            util::report_fatal(who, "conflicting TDF timestep anchors (first anchor: " +
                                        *anchor_name + " giving cluster period " +
                                        period_.to_string() + ", this one " +
                                        tc.to_string() + ")");
        }
    };
    for (module* m : modules_) {
        if (m->timestep_request() > de::time::zero()) {
            consider(m->timestep_request(), *m, m->name());
        }
        for (port_base* p : m->ports()) {
            if (p->timestep_request() > de::time::zero()) {
                consider(p->timestep_request() * static_cast<std::int64_t>(p->rate()),
                         *p->owner(), p->name());
            }
        }
    }
    util::require(period_ > de::time::zero(), "tdf_cluster",
                  "no timestep anchor in TDF cluster: call set_timestep on at least "
                  "one module or port");

    for (module* m : modules_) {
        const auto reps = static_cast<std::int64_t>(m->repetitions());
        util::require(period_.value_fs() % reps == 0, m->name(),
                      "cluster period is not an integer multiple of the module period "
                      "at femtosecond resolution; choose rounder timesteps");
        const de::time tm = de::time::from_fs(period_.value_fs() / reps);
        m->set_resolved_timestep(tm);
        for (port_base* p : m->ports()) {
            p->set_resolved_timestep(
                de::time::from_fs(tm.value_fs() / static_cast<std::int64_t>(p->rate())));
        }
    }
}

compiled_schedule cluster::compile_current() const {
    // Describe the graph abstractly and compile it (PASS construction,
    // run-length encoding and the pass rule live in schedule.cpp).  Dynamic
    // clusters must offer the change_attributes() window after every
    // period, so their passes never fuse periods.
    std::map<const module*, std::size_t> index;
    for (std::size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;

    std::vector<sdf_signal_desc> descs(signals_.size());
    for (std::size_t s = 0; s < signals_.size(); ++s) {
        const port_base* w = signals_[s]->writer();
        descs[s].writer = {index.at(w->owner()), w->rate(), w->delay()};
        for (port_base* r : signals_[s]->readers()) {
            descs[s].readers.push_back({index.at(r->owner()), r->rate(), r->delay()});
        }
    }
    std::vector<std::uint64_t> reps(modules_.size());
    for (std::size_t i = 0; i < modules_.size(); ++i) reps[i] = modules_[i]->repetitions();

    return compile_schedule(reps, descs, dynamic_ ? 1 : max_batch_);
}

void cluster::install_program(const compiled_schedule& compiled) {
    program_.clear();
    program_.reserve(compiled.program.size());
    for (const firing_entry& e : compiled.program) {
        program_.push_back({modules_[e.module], e.first_firing, e.count});
    }
}

void cluster::size_buffers(const std::vector<std::size_t>& capacities, bool in_place) {
    // (Re)allocate the ring buffers and reset port stream positions: writers
    // start after their delay tokens.  Reschedules resize in place where the
    // existing capacity suffices; the streams restart either way, so delay
    // tokens re-read the initial value deterministically.
    for (std::size_t s = 0; s < signals_.size(); ++s) {
        if (in_place) {
            signals_[s]->ensure_allocated(capacities[s]);
        } else {
            signals_[s]->allocate(capacities[s]);
        }
        signals_[s]->writer()->reset_position(signals_[s]->writer()->delay());
        for (port_base* r : signals_[s]->readers()) r->reset_position(0);
    }
}

void cluster::build_schedule() {
    last_compiled_ = compile_current();
    install_program(last_compiled_);
    size_buffers(last_compiled_.buffer_capacity, /*in_place=*/false);
}

void cluster::detect_de_coupling() {
    de_coupling c = de_coupling::none;
    for (const module* m : modules_) {
        c = std::max({c, m->de_coupling_declared(), subtree_de_coupling(m)});
    }
    de_coupled_ = c != de_coupling::none;
    de_writer_ = c == de_coupling::writes;
}

void cluster::elaborate() {
    compute_repetitions();
    resolve_timesteps();
    // Dynamic membership caps the pass length, so it is detected before the
    // schedule is built.
    detect_de_coupling();
    dynamic_modules_.clear();
    for (module* m : modules_) {
        if (m->does_attribute_changes()) dynamic_modules_.push_back(m);
    }
    dynamic_ = !dynamic_modules_.empty();
    build_schedule();
    if (dynamic_) {
        // Seed the schedule cache with the elaborated configuration, so a
        // model that wanders away and back reinstates it with a hash lookup.
        cache_.insert(compute_signature(), snapshot_config());
    }
    for (module* m : modules_) m->set_owning_cluster(*this);
    for (module* m : modules_) m->initialize();
}

// ----------------------------------------------------- dynamic rescheduling

attribute_signature cluster::compute_signature() const {
    attribute_signature sig;
    for (const module* m : modules_) {
        sig.words.push_back(static_cast<std::uint64_t>(m->timestep_request().value_fs()));
        for (const port_base* p : m->ports()) {
            sig.words.push_back((static_cast<std::uint64_t>(p->rate()) << 32U) |
                                static_cast<std::uint64_t>(p->delay()));
        }
    }
    return sig;
}

cluster_config cluster::snapshot_config() const {
    cluster_config cfg;
    cfg.period = period_;
    cfg.compiled = last_compiled_;
    for (const module* m : modules_) {
        cfg.repetitions.push_back(m->repetitions());
        cfg.module_timesteps.push_back(m->timestep());
        for (const port_base* p : m->ports()) {
            cfg.port_timesteps.push_back(p->timestep());
        }
    }
    return cfg;
}

void cluster::install_config(const cluster_config& cfg) {
    period_ = cfg.period;
    std::size_t pi = 0;
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->set_repetitions(cfg.repetitions[i]);
        modules_[i]->set_resolved_timestep(cfg.module_timesteps[i]);
        for (port_base* p : modules_[i]->ports()) {
            p->set_resolved_timestep(cfg.port_timesteps[pi++]);
        }
    }
    last_compiled_ = cfg.compiled;
    install_program(cfg.compiled);
    size_buffers(cfg.compiled.buffer_capacity, /*in_place=*/true);
}

void cluster::run_change_attributes() {
    // Block/reschedule barrier: this window only opens after a pass, and
    // passes of dynamic clusters span one period, so any in-flight block is
    // already flushed — every staged token is written and every port
    // position advanced — before a reschedule can land.
    bool any = false;
    for (module* m : dynamic_modules_) {
        m->set_in_change_attributes(true);
        m->change_attributes();
        m->set_in_change_attributes(false);
        if (m->has_pending_timestep()) any = true;
        for (port_base* p : m->ports()) {
            if (p->has_staged_rate()) any = true;
        }
    }
    if (any) apply_attribute_changes();
}

void cluster::apply_attribute_changes() {
    // A request that restates the current configuration is a no-op: clear
    // the staged values without touching the schedule (so a module may
    // unconditionally re-request its state every period for free).  The
    // timestep comparison is against the module's *resolved* timestep —
    // for an anchored module that equals its request, and for an
    // unanchored module it is the state a restatement restates.
    const module* requester = nullptr;  // the last module with a real change
    for (module* m : dynamic_modules_) {
        if (m->has_pending_timestep() && m->pending_timestep() != m->timestep()) {
            requester = m;
        }
        for (port_base* p : m->ports()) {
            if (p->has_staged_rate() && p->staged_rate() != p->rate()) requester = m;
        }
    }
    if (requester == nullptr) {
        for (module* m : dynamic_modules_) {
            m->clear_pending_timestep();
            for (port_base* p : m->ports()) p->clear_staged_rate();
        }
        return;
    }

    // Gating: every member must tolerate the retiming.  Modules that change
    // attributes themselves accept by default (see module.hpp).
    for (module* m : modules_) {
        if (!m->accept_attribute_changes()) {
            util::report_fatal(m->name(), "rejects the TDF attribute change requested by " +
                                              requester->name() +
                                              ": override accept_attribute_changes() to "
                                              "return true (its timestep/port sample "
                                              "periods would move at runtime)");
        }
    }

    // Apply the staged requests, then swap in the matching schedule: a hash
    // lookup for configurations visited before, a full recompile otherwise.
    // Restatements riding along with another module's real change are
    // dropped, not applied: turning them into fresh anchors would conflict
    // with the new timing they merely restated.
    for (module* m : dynamic_modules_) {
        if (m->has_pending_timestep()) {
            if (m->pending_timestep() != m->timestep()) {
                m->set_timestep(m->pending_timestep());
            }
            m->clear_pending_timestep();
        }
        for (port_base* p : m->ports()) {
            if (p->has_staged_rate()) p->set_rate(p->staged_rate());
            p->clear_staged_rate();
        }
    }
    SCA_TRACE_SPAN(ctx_ != nullptr ? &ctx_->tracer() : nullptr, "tdf.cluster.reschedule",
                   "tdf");
    ++reschedules_;
    install_signature(compute_signature());
}

void cluster::install_signature(const attribute_signature& sig) {
    if (const cluster_config* cfg = cache_.find(sig)) {
        install_config(*cfg);
        return;
    }
    ++recompiles_;
    compute_repetitions();
    resolve_timesteps();
    last_compiled_ = compile_current();
    install_program(last_compiled_);
    size_buffers(last_compiled_.buffer_capacity, /*in_place=*/true);
    cache_.insert(sig, snapshot_config());
}

void cluster::attach(de::simulation_context& ctx) {
    ctx_ = &ctx;
    proc_ = &ctx.register_method("tdf_cluster_exec", [this] { on_wake(); });
    if (!de_writer_) proc_->mark_batch_rearm();  // peers' batch plans ignore it
}

void cluster::set_max_batch_periods(std::uint64_t n) {
    util::require(n >= 1, "tdf_cluster", "max batch periods must be >= 1");
    max_batch_ = n;
}

void cluster::set_batch_bounds(std::vector<const cluster*> writers) {
    writers_ = std::move(writers);
}

void cluster::run_cycles(const de::time& start, std::uint64_t n) {
    SCA_TRACE_SPAN_T(ctx_ != nullptr ? &ctx_->tracer() : nullptr, "tdf.cluster.cycles",
                     "tdf", start.to_seconds());
    de::time t = start;
    const std::uint64_t planned_at = reschedules_;
    for (std::uint64_t left = n; left > 0 && reschedules_ == planned_at;) {
        // One pass: the program with every count scaled by k (legal up to
        // batch_periods(), see compile_schedule), so a chain collapses into
        // long run-length entries, i.e. large block calls.
        const std::uint64_t k = std::min(left, batch_periods());
        for (const program_entry& e : program_) {
            if (block_execution_ && e.mod->has_block_processing()) {
                e.mod->fire_block_run(t, e.first_firing * k, e.count * k);
            } else {
                e.mod->fire_run(t, e.first_firing * k, e.count * k);
            }
        }
        cycles_ += k;
        if (k > 1) fused_cycles_ += k;
        t += period_ * static_cast<std::int64_t>(k);
        left -= k;
        // Dynamic clusters (one-period passes) open the change_attributes()
        // window after each pass.  A reschedule invalidates the rest of the
        // plan, which was bounded on the old timestep: the loop stops and
        // the next timed wake re-syncs on the new grid.
        if (dynamic_) run_change_attributes();
    }
    next_cycle_start_ = t;
}

std::uint64_t cluster::plan_batch_ahead() const {
    // Batching contract: run cycles ahead of DE time only when no DE process
    // could observe the difference.  Clusters that write DE signals never
    // batch.  The bound is the next pending timed event — except the re-arms
    // of the other batchable clusters, which provably cannot interact — the
    // next wake of every DE-writing cluster (one woken at this instant may
    // not have re-armed yet), and the end of the current scheduler run, so
    // the final state matches per-period execution exactly.  This runs in
    // the pre-timestep stage: every same-instant process has already run and
    // armed its next timed event, making the timed queue authoritative.
    const std::int64_t p = period_.value_fs();
    std::uint64_t n = max_batch_ - 1;  // one cycle already ran this interaction
    if (n == 0 || p <= 0) return 0;
    const de::time s = next_cycle_start_;
    const auto bound_by = [&](const de::time& t) {
        if (t <= s) {
            n = 0;
        } else {
            n = std::min(n, static_cast<std::uint64_t>(((t - s).value_fs() + p - 1) / p));
        }
    };

    const de::scheduler& sch = static_cast<const de::simulation_context&>(*ctx_).sched();
    const de::time end = sch.run_end();
    if (end != de::time::max()) {
        if (s > end) return 0;
        n = std::min(n, static_cast<std::uint64_t>((end - s).value_fs() / p) + 1);
    }
    for (const cluster* w : writers_) bound_by(w->next_cycle_start_);
    const de::time next_ev = sch.next_event_time_ignoring_rearms();
    if (next_ev != de::time::max()) bound_by(next_ev);
    return n;
}

void cluster::on_wake() {
    // Timed wake at a cycle boundary: one cycle.  The re-arm waits for the
    // pre-timestep stage, so it is always made after every same-instant
    // process has armed its own next event, whatever the batch size: a
    // probe sharing the cluster's next instant then always runs after the
    // cluster, and max_batch_periods = 1 matches batched execution.
    run_cycles(ctx_->now(), 1);
    ctx_->sched().request_pre_timestep(*this);
}

void cluster::pre_timestep() {
    const std::uint64_t ahead = de_writer_ ? 0 : plan_batch_ahead();
    if (ahead > 0) run_cycles(next_cycle_start_, ahead);
    // The cycle just run spans its (possibly old) period, so the next wake is
    // next_cycle_start_ even after a reschedule: the DE re-sync lands on the
    // new grid from there.
    proc_->next_trigger(next_cycle_start_ - ctx_->now());
}

// ------------------------------------------------------------------ snapshot

void cluster::save_state(util::byte_writer& w) const {
    w.u64(static_cast<std::uint64_t>(modules_.size()));
    for (const module* m : modules_) {
        w.i64(m->timestep_request().value_fs());
        w.i64(m->timestep().value_fs());
        w.u64(m->repetitions());
        w.i64(m->tdf_time().value_fs());
        w.u64(m->activation_count());
        w.u64(m->block_call_count());
        w.u64(m->block_firing_count());
        w.u64(static_cast<std::uint64_t>(m->ports().size()));
        for (const port_base* p : m->ports()) {
            w.u32(p->rate());
            w.u32(p->delay());
            w.i64(p->timestep_request().value_fs());
            w.i64(p->timestep().value_fs());
            w.u64(p->position());
        }
    }
    // The installed attribute signature: restore recomputes it from the
    // overlaid attributes and refuses on mismatch (revalidation, not trust).
    w.u64_vec(compute_signature().words);
    w.u64(static_cast<std::uint64_t>(signals_.size()));
    for (const signal_base* s : signals_) s->save_tokens(w);
    w.i64(period_.value_fs());
    w.i64(next_cycle_start_.value_fs());
    w.u64(cycles_);
    w.u64(fused_cycles_);
    w.u64(reschedules_);
    w.u64(recompiles_);
    w.boolean(de_coupled_);
    w.boolean(dynamic_);
}

void cluster::restore_state(util::byte_reader& r) {
    util::require(r.u64() == modules_.size(), "snapshot",
                  "cluster: rebuilt module count differs from snapshot");
    // The signature the *rebuilt* model elaborated with; if the saved run had
    // rescheduled away from it, the matching program must be reinstalled.
    const attribute_signature elaborated_sig = compute_signature();

    struct module_state {
        de::time current_time;
        std::uint64_t activations, block_calls, block_firings;
        std::vector<std::uint64_t> positions;
    };
    std::vector<module_state> saved(modules_.size());
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        module* m = modules_[i];
        const auto ts_request = de::time::from_fs(r.i64());
        const auto ts_resolved = de::time::from_fs(r.i64());
        const std::uint64_t reps = r.u64();
        saved[i].current_time = de::time::from_fs(r.i64());
        saved[i].activations = r.u64();
        saved[i].block_calls = r.u64();
        saved[i].block_firings = r.u64();
        util::require(r.u64() == m->ports().size(), "snapshot",
                      "cluster: rebuilt port count of '" + m->name() +
                          "' differs from snapshot");
        // Overlay the schedule-determining attributes first: the reinstall
        // below compiles (or cache-installs) against them.
        m->set_timestep(ts_request);
        m->set_resolved_timestep(ts_resolved);
        m->set_repetitions(reps);
        for (port_base* p : m->ports()) {
            p->set_rate(r.u32());
            p->set_delay(r.u32());
            p->set_timestep(de::time::from_fs(r.i64()));
            p->set_resolved_timestep(de::time::from_fs(r.i64()));
            saved[i].positions.push_back(r.u64());
        }
    }

    attribute_signature saved_sig;
    saved_sig.words = r.u64_vec();
    util::require(compute_signature() == saved_sig, "snapshot",
                  "cluster: rebuilt attribute signature differs from snapshot");
    if (!(saved_sig == elaborated_sig)) {
        // The saved run had rescheduled: reinstall the matching program — a
        // schedule-cache hit when this configuration was visited before
        // (elaboration seeds the cache), otherwise a full recompile that
        // seeds it now.  Counters are overlaid afterwards either way.
        install_signature(saved_sig);
    }

    // Positions and tokens go last: schedule installation resets both.
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        module* m = modules_[i];
        m->restore_runtime_state(saved[i].current_time, saved[i].activations,
                                 saved[i].block_calls, saved[i].block_firings);
        std::size_t pi = 0;
        for (port_base* p : m->ports()) p->reset_position(saved[i].positions[pi++]);
    }
    util::require(r.u64() == signals_.size(), "snapshot",
                  "cluster: rebuilt signal count differs from snapshot");
    // Rings come back at their saved capacity (placement is modulo the
    // capacity), so one saved under a smaller batch cap cannot hold the
    // installed schedule's passes.  Dynamic rings only grow, hence >=.
    for (std::size_t s = 0; s < signals_.size(); ++s) {
        signals_[s]->restore_tokens(r);
        const std::size_t need = last_compiled_.buffer_capacity[s];
        util::require(signals_[s]->capacity() >= need, "snapshot",
                      "signal '" + signals_[s]->name() + "': saved ring of " +
                          std::to_string(signals_[s]->capacity()) +
                          " tokens is smaller than the " + std::to_string(need) +
                          " the installed schedule needs (saved under a smaller batch "
                          "cap?)");
    }
    period_ = de::time::from_fs(r.i64());
    next_cycle_start_ = de::time::from_fs(r.i64());
    cycles_ = r.u64();
    fused_cycles_ = r.u64();
    reschedules_ = r.u64();
    recompiles_ = r.u64();
    util::require(r.boolean() == de_coupled_, "snapshot",
                  "cluster: DE coupling differs from snapshot");
    util::require(r.boolean() == dynamic_, "snapshot",
                  "cluster: dynamic membership differs from snapshot");
}

// ------------------------------------------------------------------ registry

registry::registry(de::simulation_context& ctx) : ctx_(&ctx) {
    ctx.add_elaboration_hook([this] { elaborate_clusters(); });
    // The hot per-object counters (module activations, cluster cycles,
    // schedule-cache hits) stay where the firing loops write them; this
    // collector reports their totals whenever metrics are collected.
    ctx.add_metrics_collector([this](util::metrics_snapshot& out) { report_metrics(out); });
}

void registry::report_metrics(util::metrics_snapshot& out) const {
    std::uint64_t cycles = 0, fused = 0, resched = 0, recompiles = 0, hits = 0, misses = 0;
    for (const auto& c : clusters_) {
        cycles += c->cycle_count();
        fused += c->fused_cycle_count();
        resched += c->reschedule_count();
        recompiles += c->recompile_count();
        hits += c->schedule_cache_hits();
        misses += c->schedule_cache_misses();
    }
    std::uint64_t activations = 0, block_calls = 0, block_firings = 0;
    std::uint64_t numeric = 0, symbolic = 0, fallbacks = 0;
    for (module* m : modules_) {
        activations += m->activation_count();
        block_calls += m->block_call_count();
        block_firings += m->block_firing_count();
        if (const auto* d = dynamic_cast<const dae_module*>(m)) {
            numeric += d->factorizations();
            symbolic += d->symbolic_factorizations();
            fallbacks += d->refactor_fallbacks();
        }
    }
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"tdf.clusters", clusters_.size()},
        {"tdf.cluster.cycles", cycles},
        {"tdf.cluster.fused_cycles", fused},
        {"tdf.cluster.reschedules", resched},
        {"tdf.cluster.recompiles", recompiles},
        {"tdf.schedule_cache.hits", hits},
        {"tdf.schedule_cache.misses", misses},
        {"tdf.module.activations", activations},
        {"tdf.module.block_calls", block_calls},
        {"tdf.module.block_firings", block_firings},
        {"solver.numeric_factorizations", numeric},
        {"solver.refactor_fallbacks", fallbacks},
        {"solver.symbolic_factorizations", symbolic},
    };
    for (const auto& [name, n] : counts) out.push_back({.name = name, .count = n});
}

registry::~registry() = default;

registry& registry::of(de::simulation_context& ctx) { return ctx.domain_data<registry>(); }

void registry::add_module(module& m) { modules_.push_back(&m); }

signal_base& registry::adopt_signal(std::unique_ptr<signal_base> s) {
    adopted_signals_.push_back(std::move(s));
    return *adopted_signals_.back();
}

void registry::set_default_max_batch_periods(std::uint64_t n) {
    util::require(n >= 1, "tdf_registry", "max batch periods must be >= 1");
    default_max_batch_ = n;
    for (auto& c : clusters_) c->set_max_batch_periods(n);
}

void registry::set_default_block_execution(bool on) {
    default_block_execution_ = on;
    for (auto& c : clusters_) c->set_block_execution(on);
}

void registry::elaborate_clusters() {
    if (elaborated_) return;
    elaborated_ = true;
    SCA_TRACE_SPAN(&ctx_->tracer(), "tdf.elaborate_clusters", "tdf");

    // Binding resolution: follow every port's forwarding chain to its
    // terminal signal and attach dataflow endpoints there.  This covers
    // module ports, composite forwarding ports, and the converter ports of
    // ELN/LSF components alike; unbound chains fail here with the port's
    // full hierarchical path.
    for (de::object* o : ctx_->objects()) {
        if (auto* p = dynamic_cast<port_base*>(o)) p->resolve();
    }

    // Attribute settling: modules declare rates/delays/timesteps.
    for (module* m : modules_) m->set_attributes();

    // Union-find over modules connected through TDF signals.
    std::map<module*, std::size_t> index;
    for (std::size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;
    std::vector<std::size_t> parent(modules_.size());
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto unite = [&](std::size_t a, std::size_t b) { parent[find(a)] = find(b); };

    for (module* m : modules_) {
        for (port_base* p : m->ports()) {
            util::require(p->owner() != nullptr, p->name(), "TDF port has no owner module");
            signal_base* s = p->bound_signal();
            util::require(s != nullptr, p->name(), "TDF port is unbound");
            if (s->writer() != nullptr && s->writer()->owner() != nullptr) {
                unite(index.at(m), index.at(s->writer()->owner()));
            }
            for (port_base* r : s->readers()) {
                if (r->owner() != nullptr) unite(index.at(m), index.at(r->owner()));
            }
        }
    }

    std::map<std::size_t, std::vector<module*>> groups;
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        groups[find(i)].push_back(modules_[i]);
    }
    for (auto& [root, members] : groups) {
        clusters_.push_back(std::make_unique<cluster>(std::move(members)));
        clusters_.back()->set_max_batch_periods(default_max_batch_);
        clusters_.back()->set_block_execution(default_block_execution_);
        clusters_.back()->elaborate();
        clusters_.back()->attach(*ctx_);
    }

    // Clusters that write no DE signal cannot observe one another, so batch
    // planning ignores their wakes (marked at attach); a DE-writing
    // cluster's next wake bounds every batch.
    std::vector<const cluster*> writers;
    for (const auto& c : clusters_) {
        if (c->de_writer()) writers.push_back(c.get());
    }
    for (const auto& c : clusters_) {
        if (!c->de_writer()) c->set_batch_bounds(writers);
    }
}

}  // namespace sca::tdf
