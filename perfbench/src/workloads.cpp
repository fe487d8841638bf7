#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/run_set.hpp"
#include "kernel/context.hpp"
#include "layers.hpp"
#include "models.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace core = sca::core;
namespace de = sca::de;

namespace {

/// A main loop runs in this many segments, each after a block of timed
/// set-ups, so set-up samples are spread over the whole run.
constexpr std::size_t k_segments = 10;
/// Timed set-ups per block (the sweep and stream models set up in
/// microseconds, so they take more).
constexpr std::size_t k_setup_reps = 5;
constexpr std::size_t k_small_setup_reps = 15;

/// Records one main loop's totals: runs, simulated samples counted from the
/// program, and the seconds they took (with `workers`, the base of
/// core.backend.busy_frac).
void record_loop(report& rep, double runs, double samples, double seconds, double workers) {
    rep.value("loop.runs", runs);
    rep.value("loop.samples", samples);
    rep.value("loop.seconds", seconds);
    rep.value("loop.workers", workers);
}

/// One throughput window; perfbench/stats.py reports the upper quartile of
/// the windows (WINDOW_PERCENTILE says why).
void record_window(report& rep, double runs, double sim_samples, double seconds) {
    rep.sample("window.runs_per_s", runs / seconds);
    rep.sample("window.sim_samples_per_s", sim_samples / seconds);
}

/// Time `reps` throwaway set-ups into "setup_s", in thread CPU time.
/// `setup` returns what it built, which is destroyed only after the sample
/// is taken, so teardown is not part of set-up time.
template <typename Fn>
void setup_block(report& rep, std::size_t reps, Fn&& setup) {
    for (std::size_t r = 0; r < reps; ++r) {
        const double t0 = thread_cpu_s();
        const auto built = setup();
        rep.sample("setup_s", thread_cpu_s() - t0);
    }
}

bool same_result(const core::run_result& a, const core::run_result& b) {
    if (a.ok != b.ok || a.measurements.size() != b.measurements.size()) return false;
    for (const auto& [name, v] : a.measurements) {
        const auto it = b.measurements.find(name);
        if (it == b.measurements.end() ||
            std::bit_cast<std::uint64_t>(it->second) != std::bit_cast<std::uint64_t>(v)) {
            return false;
        }
    }
    return a.run_metrics == b.run_metrics;
}

// ------------------------------------------------------------ tdf_dataflow --

const de::time k_slice = de::time::from_seconds(models::k_source_step_s * models::k_osr *
                                                static_cast<double>(models::k_slice_outputs));

void tdf_loop(const core::params& p, double seconds, bool traced, report& rep) {
    const core::scenario& sc = models::receiver();
    const auto setup = [&] {
        auto tb = sc.build(p);
        if (traced) tb->context().tracer().enable();
        tb->elaborate();
        return tb;
    };
    const auto tb = setup();

    // Source samples of all channels behind each output the sink consumed.
    const double samples_per_output = static_cast<double>(models::k_osr * models::k_channels);
    std::size_t slices = 0;
    double samples = 0.0;
    double cpu = 0.0;
    const auto run_slice = [&] {
        const auto before = models::receiver_outputs(*tb);
        const double t0 = thread_cpu_s();
        tb->run(k_slice);
        const double dt = thread_cpu_s() - t0;
        const double n =
            static_cast<double>(models::receiver_outputs(*tb) - before) * samples_per_output;
        rep.sample("run_ms", dt * 1e3);
        record_window(rep, 1.0, n, dt);
        ++slices;
        samples += n;
        cpu += dt;
        rep.op("slice", true);
    };
    try {
        for (std::size_t seg = 0; seg < k_segments; ++seg) {
            setup_block(rep, k_setup_reps, setup);
            const auto start = clock::now();
            while (seconds_since(start) < seconds / k_segments) run_slice();
        }
    } catch (const std::exception& e) {
        rep.op("slice", false, e.what());
    }
    record_loop(rep, static_cast<double>(slices), samples, cpu, 1.0);

    // The cluster also fires once at t = 0.
    const auto outputs = static_cast<double>(slices * models::k_slice_outputs);
    const auto seen = models::receiver_outputs(*tb);
    rep.check("tdf.output_count", static_cast<double>(seen) == outputs + 1.0,
              std::to_string(seen) + " outputs for " + std::to_string(slices) + " slices");
    const double err = models::receiver_amplitude_error(p, models::receiver_capture(*tb));
    rep.value("oracle.max_rel_error", err);
    rep.check("tdf.amplitude_oracle", err <= models::k_receiver_tolerance,
              "worst channel amplitude error " + std::to_string(err));
    const std::size_t rows = slices * models::k_slice_outputs / models::k_monitor_every + 1;
    rep.check("tdf.probe_rows", slices == 0 || tb->times().size() == rows,
              std::to_string(tb->times().size()) + " probe rows, expected " +
                  std::to_string(rows));
    if (traced) {
        const auto dropped = tb->context().tracer().dropped();
        rep.check("trace.loop_no_dropped_spans", dropped == 0,
                  std::to_string(dropped) + " spans dropped");
    }
}

// ---------------------------------------------------------------- sweep_mp --

constexpr unsigned k_workers = 4;
constexpr std::size_t k_campaign_runs = 96;
constexpr std::size_t k_replays_per_campaign = 2;

void sweep_loop(input_rng& rng, std::uint64_t seed, double seconds, report& rep) {
    const core::params first = models::buck_point(rng);
    const auto setup = [&] {
        auto tb = models::buck().build(first);
        tb->elaborate();
        return tb;
    };
    std::size_t runs = 0;
    double steps = 0.0;
    double wall = 0.0;
    for (std::size_t seg = 0; seg < k_segments; ++seg) {
        setup_block(rep, k_small_setup_reps, setup);
        const auto start = clock::now();
        while (seconds_since(start) < seconds / k_segments) {
            core::run_set rs(models::buck());
            for (std::size_t i = 0; i < k_campaign_runs; ++i) {
                rs.add_point(models::buck_point(rng));
            }
            std::map<int, clock::time_point> last;
            rs.set_backend(core::run_backend::multiprocess)
                .set_workers(k_workers)
                .keep_waveforms(false)
                .set_base_seed(seed)
                .on_result([&](const core::run_result& r) {
                    const auto now = clock::now();
                    const auto it = last.find(r.worker);
                    if (it != last.end()) {
                        rep.sample("run_ms", seconds_between(it->second, now) * 1e3);
                    }
                    last[r.worker] = now;
                });
            const auto t0 = clock::now();
            const core::result_table table = rs.run_all();
            const double dt = seconds_since(t0);
            wall += dt;
            runs += table.size();
            // Solver steps as the workers counted them: one cluster period
            // (one ELN step) per simulated microsecond.
            double campaign_steps = 0.0;
            for (const auto& r : table.runs()) {
                rep.op("run", r.ok, r.error);
                campaign_steps +=
                    static_cast<double>(metric_count(r.run_metrics, "tdf.cluster.cycles"));
            }
            steps += campaign_steps;
            record_window(rep, static_cast<double>(table.size()), campaign_steps, dt);

            // Multiprocess results must be bit-identical to an in-process replay.
            for (std::size_t j = 0; j < k_replays_per_campaign; ++j) {
                const auto index = static_cast<std::size_t>(
                    rng.integer(0, static_cast<std::int64_t>(k_campaign_runs) - 1));
                const core::run_result again = rs.run_one(index);
                rep.check("sweep.replay_bit_identical", same_result(table[index], again),
                          "run " + std::to_string(index));
            }
        }
    }
    record_loop(rep, static_cast<double>(runs), steps, wall, k_workers);
}

// ----------------------------------------------------------- server_stream --

constexpr unsigned k_clients = 2;
/// Every 50th of the first 400 sessions is also compared against an offline
/// run (a fixed count, so memory does not grow with throughput).
constexpr std::size_t k_offline_every = 50;
constexpr std::size_t k_offline_last = 400;
/// Throughput windows span this many consecutive session completions.
constexpr std::size_t k_window_sessions = 16;

void stream_loop(input_rng& rng, double seconds, bool record_server, report& rep) {
    const core::params first = models::stream_point(rng);
    const auto setup = [&] {
        auto srv = std::make_unique<sca::server::sim_server>();
        srv->start();
        auto tb = models::stream_rc().build(first);
        tb->elaborate();
        return std::make_pair(std::move(srv), std::move(tb));
    };

    struct done_session {
        core::params point;
        session_record rec;
        double oracle_error;
        clock::time_point done;
    };
    std::mutex mutex;  // guards rng, issued, finished and client_errors
    std::vector<done_session> finished;
    std::vector<std::string> client_errors;
    std::size_t issued = 0;
    double wall = 0.0;

    sca::server::sim_server srv;
    srv.start();
    const std::string name = models::stream_rc().name();
    for (std::size_t seg = 0; seg < k_segments; ++seg) {
        setup_block(rep, k_small_setup_reps, setup);
        const std::size_t seg_first = finished.size();
        const auto start = clock::now();
        const auto client_loop = [&] {
            while (seconds_since(start) < seconds / k_segments) {
                core::params p;
                std::size_t index = 0;
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    p = models::stream_point(rng);
                    index = issued++;
                }
                session_record rec = run_session(srv.port(), name, p, "vout", true);
                const double err = models::stream_amplitude_error(p, rec.values);
                if (index % k_offline_every != 0 || index >= k_offline_last) {
                    // Free, not just clear: kept records stay small.
                    rec.times = std::vector<double>();
                    rec.values = std::vector<double>();
                }
                const auto done = clock::now();
                const std::lock_guard<std::mutex> lock(mutex);
                finished.push_back({std::move(p), std::move(rec), err, done});
            }
        };
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < k_clients; ++c) {
            clients.emplace_back([&] {
                try {
                    client_loop();
                } catch (const std::exception& e) {
                    const std::lock_guard<std::mutex> lock(mutex);
                    client_errors.emplace_back(e.what());
                }
            });
        }
        for (auto& t : clients) t.join();
        wall += seconds_since(start);
        // Windows of k_window_sessions consecutive completions.
        for (std::size_t i = seg_first; i + k_window_sessions < finished.size();
             i += k_window_sessions) {
            double samples = 0.0;
            for (std::size_t j = i + 1; j <= i + k_window_sessions; ++j) {
                samples += static_cast<double>(finished[j].rec.samples);
            }
            record_window(rep, static_cast<double>(k_window_sessions), samples,
                          seconds_between(finished[i].done, finished[i + k_window_sessions].done));
        }
    }
    srv.stop();
    for (const auto& why : client_errors) rep.op("client", false, why);

    double worst = 0.0;
    double delivered = 0.0;
    std::vector<session_record> records;
    for (auto& s : finished) {
        worst = std::max(worst, s.oracle_error);
        delivered += static_cast<double>(s.rec.samples);
        std::string why;
        rep.op("session", session_ok(s.rec, models::k_stream_samples, why), why);
        rep.op("oracle", s.oracle_error <= models::k_stream_tolerance,
               "amplitude error " + std::to_string(s.oracle_error));
        rep.sample("run_ms", s.rec.total_ms);
        if (!s.rec.values.empty()) {
            auto offline = models::stream_rc().build(s.point);
            offline->run();
            rep.check("server.offline_bit_identity",
                      same_bits(offline->waveform("vout"), s.rec.values) &&
                          same_bits(offline->times(), s.rec.times),
                      "streamed waveform differs from the offline run");
        }
        if (record_server) records.push_back(std::move(s.rec));
    }
    rep.value("oracle.max_rel_error", worst);
    record_sessions(records, rep);
    record_loop(rep, static_cast<double>(finished.size()), delivered, wall, k_clients);
}

}  // namespace

void tdf_dataflow(const options& opt, report& rep) {
    input_rng rng(opt.seed);
    const core::params p = models::receiver_point(rng);
    tdf_loop(p, opt.seconds, opt.trace, rep);
    if (!opt.trace) return;

    const unit_of_work unit{&models::receiver(), p, k_slice, "out", true};
    probe_core(unit, rep);
    auto tb = models::receiver().build(p);
    tb->run();
    const std::vector<double>& out = models::receiver_capture(*tb);
    std::vector<double> times(out.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
        times[i] = static_cast<double>(i) / models::k_output_rate;
    }
    probe_wire(unit, times, out, rep);
    probe_server(unit, 3, rep);
}

void sweep_mp(const options& opt, report& rep) {
    input_rng rng(opt.seed);
    sweep_loop(rng, opt.seed, opt.seconds, rep);
    if (!opt.trace) return;

    const unit_of_work unit{&models::buck(), models::buck_point(rng), de::time::zero(), "vout",
                            false};
    probe_core(unit, rep);
    auto tb = models::buck().build(unit.point);
    tb->run();
    probe_wire(unit, tb->times(), tb->waveform("vout"), rep);
    probe_server(unit, 3, rep);
}

void server_stream(const options& opt, report& rep) {
    input_rng rng(opt.seed);
    stream_loop(rng, opt.seconds, opt.trace, rep);
    if (!opt.trace) return;

    const unit_of_work unit{&models::stream_rc(), models::stream_point(rng), de::time::zero(),
                            "vout", true};
    probe_core(unit, rep);
    auto tb = models::stream_rc().build(unit.point);
    tb->run();
    probe_wire(unit, tb->times(), tb->waveform("vout"), rep);
}

}  // namespace perfbench
