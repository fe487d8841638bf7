#include "layers.hpp"

#include <algorithm>
#include <bit>

#include "core/run_protocol.hpp"
#include "core/run_set.hpp"
#include "kernel/context.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace core = sca::core;
namespace de = sca::de;
namespace wire = sca::core::wire;

namespace {

/// In-process replays per kind (untraced, traced); the two kinds alternate.
constexpr std::size_t k_core_reps = 9;
constexpr std::size_t k_batch_samples = 512;
/// Each wire timing is sampled over batches of calls lasting >= this long.
constexpr double k_wire_batch_s = 5e-3;
constexpr std::size_t k_wire_batches = 9;

void run_unit(core::testbench& tb, const unit_of_work& unit) {
    if (unit.run_for > de::time::zero()) {
        tb.run(unit.run_for);
    } else {
        tb.run();
    }
}

/// Per-call microseconds of `fn` (which makes `calls_per_fn` calls) as
/// k_wire_batches samples of `name`, one per timed batch.
template <typename Fn>
void sample_calls(report& rep, const std::string& name, double calls_per_fn, Fn&& fn) {
    for (std::size_t b = 0; b < k_wire_batches; ++b) {
        std::size_t calls = 0;
        const auto t0 = clock::now();
        double elapsed = 0.0;
        do {
            fn();
            ++calls;
            elapsed = seconds_since(t0);
        } while (elapsed < k_wire_batch_s);
        rep.sample(name, elapsed * 1e6 / (static_cast<double>(calls) * calls_per_fn));
    }
}

}  // namespace

std::uint64_t metric_count(const sca::util::metrics_snapshot& snap, const std::string& name) {
    for (const auto& m : snap) {
        if (m.name == name) return m.count;
    }
    return 0;
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

// ------------------------------------------------------------------ core --

void probe_core(const unit_of_work& unit, report& rep) {
    // Untraced replays give core.* and the deterministic counters; traced
    // replays of the same unit give the span self times and, against the
    // untraced ones, the tracing overhead.  Both are timed in thread CPU
    // time and alternate, so they share the host's conditions.
    sca::util::metrics_snapshot counters;
    for (std::size_t r = 0; r < k_core_reps; ++r) {
        for (const bool traced : {false, true}) {
            const std::string prefix = traced ? "traced." : "";
            const double t0 = thread_cpu_s();
            auto tb = unit.sc->build(unit.point);
            const double t1 = thread_cpu_s();
            auto& tracer = tb->context().tracer();
            if (traced) tracer.enable();
            tb->elaborate();
            const double t2 = thread_cpu_s();
            run_unit(*tb, unit);
            const double t3 = thread_cpu_s();
            rep.sample(prefix + "core.build_s", t1 - t0);
            rep.sample(prefix + "core.elaborate_s", t2 - t1);
            rep.sample(prefix + "core.run_s", t3 - t2);
            if (!traced) {
                counters = tb->context().collect_metrics();
                continue;
            }
            tracer.disable();
            rep.sample("trace.dropped", static_cast<double>(tracer.dropped()));
            rep.check("trace.no_dropped_spans", tracer.dropped() == 0,
                      std::to_string(tracer.dropped()) + " spans dropped");
            const auto self = span_self_ms(tracer.events());
            for (const char* name : {"kernel.run", "tdf.cluster.cycles", "dae.step", "elaborate"}) {
                const auto it = self.find(name);
                rep.sample(std::string("trace.") + name + "_ms",
                           it == self.end() ? 0.0 : it->second);
            }
        }
    }
    for (const char* name : {"kernel.delta_cycles", "kernel.timed_notifications",
                             "tdf.cluster.cycles", "tdf.cluster.fused_cycles",
                             "tdf.module.activations", "tdf.module.block_firings",
                             "solver.numeric_factorizations",
                             "solver.symbolic_factorizations"}) {
        rep.value(name, static_cast<double>(metric_count(counters, name)));
    }

    // Does the numeric factorization count grow with run length?  Count the
    // factorizations of a second, equally long stretch of the same run.
    {
        auto tb = unit.sc->build(unit.point);
        const de::time len =
            unit.run_for > de::time::zero() ? unit.run_for : tb->stop_time();
        tb->run(len);
        const auto first = metric_count(tb->context().collect_metrics(),
                                   "solver.numeric_factorizations");
        tb->run(len);
        const auto both = metric_count(tb->context().collect_metrics(),
                                  "solver.numeric_factorizations");
        rep.value("solver.numeric_growth", static_cast<double>(both - first));
    }
}

std::map<std::string, double> span_self_ms(const std::vector<sca::util::trace_event>& events) {
    std::vector<const sca::util::trace_event*> order;
    order.reserve(events.size());
    for (const auto& e : events) order.push_back(&e);
    // Parents first: by lane, then start, then longest.
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
        if (a->lane != b->lane) return a->lane < b->lane;
        if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
        return a->dur_ns > b->dur_ns;
    });
    std::vector<std::int64_t> child_ns(order.size(), 0);
    std::vector<std::size_t> open;  // indices into order: the nesting stack
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto* e = order[i];
        while (!open.empty()) {
            const auto* top = order[open.back()];
            if (top->lane == e->lane && top->start_ns + top->dur_ns > e->start_ns) break;
            open.pop_back();
        }
        if (!open.empty()) child_ns[open.back()] += e->dur_ns;
        open.push_back(i);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < order.size(); ++i) {
        self[order[i]->name] += static_cast<double>(order[i]->dur_ns - child_ns[i]) * 1e-6;
    }
    return self;
}

// ------------------------------------------------------------------ wire --

void probe_wire(const unit_of_work& unit, const std::vector<double>& times,
                const std::vector<double>& values, report& rep) {
    const core::run_result r = core::run_set(*unit.sc)
                                   .add_point(unit.point)
                                   .keep_waveforms(unit.keep_waveforms)
                                   .run_one(0);
    rep.check("wire.replay_run_ok", r.ok, r.error);

    const std::vector<std::uint8_t> payload = wire::encode_result(r);
    rep.value("wire.result.bytes", static_cast<double>(payload.size()));
    sample_calls(rep, "wire.result.encode_us", 1.0, [&] { (void)wire::encode_result(r); });
    core::run_result back;
    sample_calls(rep, "wire.result.decode_us", 1.0,
                 [&] { back = wire::decode_result(payload.data(), payload.size()); });
    bool same = back.measurements.size() == r.measurements.size() &&
                back.waveforms.size() == r.waveforms.size();
    for (const auto& [name, v] : r.measurements) {
        const auto it = back.measurements.find(name);
        same = same && it != back.measurements.end() &&
               std::bit_cast<std::uint64_t>(it->second) == std::bit_cast<std::uint64_t>(v);
    }
    for (std::size_t w = 0; same && w < r.waveforms.size(); ++w) {
        same = same_bits(r.waveforms[w], back.waveforms[w]);
    }
    rep.check("wire.result_roundtrip_bit_exact", same, "decode(encode(result)) differs");

    // Sample batches cut from the workload's own output waveform.
    std::vector<wire::sample_batch> batches;
    for (std::size_t first = 0; first + k_batch_samples <= values.size();
         first += k_batch_samples) {
        wire::sample_batch b;
        b.probe = unit.probe;
        b.first_index = first;
        b.times.assign(times.begin() + static_cast<std::ptrdiff_t>(first),
                       times.begin() + static_cast<std::ptrdiff_t>(first + k_batch_samples));
        b.values.assign(values.begin() + static_cast<std::ptrdiff_t>(first),
                        values.begin() + static_cast<std::ptrdiff_t>(first + k_batch_samples));
        batches.push_back(std::move(b));
    }
    rep.check("wire.has_sample_batches", !batches.empty(),
              std::to_string(values.size()) + " samples < one batch");
    if (batches.empty()) return;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::vector<std::uint8_t>> frames;
    for (const auto& b : batches) {
        payloads.push_back(wire::encode_samples(b));
        frames.push_back(wire::pack_frame(wire::msg_type::samples, payloads.back()));
    }
    // Each timed call walks every batch; the samples are per batch.
    const auto per_batch = [&](const std::string& name, auto&& one) {
        sample_calls(rep, name, static_cast<double>(batches.size()), [&] {
            for (std::size_t i = 0; i < batches.size(); ++i) one(i);
        });
    };
    per_batch("wire.samples.encode_us",
              [&](std::size_t i) { (void)wire::encode_samples(batches[i]); });
    per_batch("wire.frame.pack_us", [&](std::size_t i) {
        (void)wire::pack_frame(wire::msg_type::samples, payloads[i]);
    });
    wire::frame f;
    per_batch("wire.frame.unpack_us", [&](std::size_t i) {
        std::size_t offset = 0;
        (void)wire::unpack_frame(frames[i].data(), frames[i].size(), offset, f);
    });
    wire::sample_batch decoded;
    per_batch("wire.samples.decode_us", [&](std::size_t i) {
        decoded = wire::decode_samples(payloads[i].data(), payloads[i].size());
    });
    bool batches_same = true;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        std::size_t offset = 0;
        wire::frame g;
        batches_same = batches_same &&
                       wire::unpack_frame(frames[i].data(), frames[i].size(), offset, g) &&
                       g.payload == payloads[i];
        const auto d = wire::decode_samples(payloads[i].data(), payloads[i].size());
        batches_same = batches_same && same_bits(d.values, batches[i].values) &&
                       same_bits(d.times, batches[i].times);
    }
    rep.check("wire.samples_roundtrip_bit_exact", batches_same, "a batch did not round-trip");
}

// ---------------------------------------------------------------- server --

session_record run_session(std::uint16_t port, const std::string& scenario,
                           const core::params& point, const std::string& probe,
                           bool keep_wave) {
    session_record s;
    try {
        const auto t0 = clock::now();
        auto cl = sca::server::client::connect_tcp("127.0.0.1", port);
        const auto t1 = clock::now();
        (void)cl.hello();
        const auto t2 = clock::now();
        cl.open_async(scenario, point);
        cl.subscribe(probe);
        (void)cl.await_opened();
        const auto t3 = clock::now();
        cl.resume();
        const auto t4 = clock::now();
        auto t5 = t4;
        bool first = true;
        wire::close_info info;
        for (;;) {
            const wire::frame f = cl.read_frame();
            if (f.type == wire::msg_type::close) {
                info = wire::decode_close(f.payload.data(), f.payload.size());
                break;
            }
            if (first && f.type == wire::msg_type::samples) {
                t5 = clock::now();
                first = false;
            }
            cl.absorb(f);
        }
        const auto t6 = clock::now();
        s.connect_ms = seconds_between(t0, t1) * 1e3;
        s.hello_ms = seconds_between(t1, t2) * 1e3;
        s.open_ms = seconds_between(t2, t3) * 1e3;
        s.ttfs_ms = seconds_between(t4, t5) * 1e3;
        s.drain_s = seconds_between(t4, t6);
        s.total_ms = seconds_between(t0, t6) * 1e3;
        s.finished = info.reason == wire::close_reason::finished;
        s.slices = info.slices;
        s.max_queue_depth = info.max_queue_depth;
        s.dropped = info.samples_dropped;
        if (!cl.errors().empty()) s.error = cl.errors().front();
        if (cl.has_wave(probe)) {
            const auto& w = cl.wave(probe);
            s.samples = w.values.size();
            s.batches = w.batches;
            s.gaps = w.gaps;
            s.dropped = std::max(s.dropped, w.dropped);
            if (keep_wave) {
                s.times = w.times;
                s.values = w.values;
            }
        }
    } catch (const std::exception& e) {
        s.error = e.what();
    }
    return s;
}

bool session_ok(const session_record& s, std::uint64_t expected, std::string& why) {
    if (!s.error.empty()) {
        why = s.error;
    } else if (!s.finished) {
        why = "session did not run to its stop time";
    } else if (s.dropped != 0 || s.gaps != 0) {
        why = std::to_string(s.dropped) + " samples dropped, " + std::to_string(s.gaps) +
              " gaps";
    } else if (s.samples != expected) {
        why = std::to_string(s.samples) + " samples, expected " + std::to_string(expected);
    } else {
        return true;
    }
    return false;
}

void record_sessions(const std::vector<session_record>& sessions, report& rep) {
    for (const auto& s : sessions) {
        rep.sample("server.connect_ms", s.connect_ms);
        rep.sample("server.hello_ms", s.hello_ms);
        rep.sample("server.open_ms", s.open_ms);
        rep.sample("server.ttfs_ms", s.ttfs_ms);
        rep.sample("server.drain_s", s.drain_s);
        rep.sample("server.slices", static_cast<double>(s.slices));
        rep.sample("server.max_queue_depth", static_cast<double>(s.max_queue_depth));
        rep.sample("server.samples_dropped", static_cast<double>(s.dropped));
        rep.sample("server.samples_per_batch",
                   s.batches > 0 ? static_cast<double>(s.samples) / static_cast<double>(s.batches)
                                 : 0.0);
    }
}

void probe_server(const unit_of_work& unit, std::size_t count, report& rep) {
    // Expected sample count: the offline run of the same point (a session
    // always runs to the scenario's stop time).
    auto offline = unit.sc->build(unit.point);
    offline->run();
    const std::uint64_t expected = offline->waveform(unit.probe).size();

    sca::server::sim_server srv;
    srv.start();
    std::vector<session_record> sessions;
    for (std::size_t i = 0; i < count; ++i) {
        sessions.push_back(
            run_session(srv.port(), unit.sc->name(), unit.point, unit.probe, false));
        std::string why;
        rep.op("server_probe_session", session_ok(sessions.back(), expected, why), why);
    }
    srv.stop();
    record_sessions(sessions, rep);
}

}  // namespace perfbench
