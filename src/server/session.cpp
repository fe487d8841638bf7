#include "server/session.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "kernel/context.hpp"
#include "util/report.hpp"
#include "util/trace_export.hpp"

namespace sca::server {

namespace wire = core::wire;

session::session(config cfg, wire::open_request req)
    : cfg_(std::move(cfg)), req_(std::move(req)), out_(cfg_.queue_capacity) {}

session::~session() {
    request_stop();
    join();
}

void session::start() { worker_ = std::thread([this] { worker_body(); }); }

void session::enqueue(wire::frame f) {
    {
        const std::lock_guard<std::mutex> lock(command_mutex_);
        commands_.push_back(std::move(f));
    }
    command_cv_.notify_one();
}

void session::request_stop() {
    {
        const std::lock_guard<std::mutex> lock(command_mutex_);
        stop_requested_ = true;
    }
    command_cv_.notify_one();
}

void session::join() {
    if (worker_.joinable()) worker_.join();
}

void session::wake() {
    if (cfg_.wake) cfg_.wake();
}

void session::send_error(const std::string& message) {
    out_.push_control({wire::msg_type::error, wire::encode_error(message)});
    wake();
}

void session::send_close(wire::close_reason reason, core::testbench* tb) {
    // A gap is normally reported by the next delivered batch; if the run
    // ends while the consumer is still behind, there is no next batch, so
    // deliver an empty one carrying the final dropped count per probe
    // (push_control: the closing handshake is never dropped).
    for (const auto& [probe, sub] : subs_) {
        if (sub.dropped == 0) continue;
        wire::sample_batch tail;
        tail.probe = probe;
        tail.first_index = sub.next;
        tail.dropped = sub.dropped;
        out_.push_control({wire::msg_type::samples, wire::encode_samples(tail)});
    }
    wire::close_info info;
    fill_stats(info, tb);
    info.reason = reason;
    if (tb != nullptr) info.measurements = tb->measurements();
    out_.push_control({wire::msg_type::close, wire::encode_close(info)});
    wake();
}

void session::fill_stats(wire::stats_info& info, core::testbench* tb) const {
    info.slices = slices_.load(std::memory_order_relaxed);
    info.samples_streamed = streamed_.load(std::memory_order_relaxed);
    info.samples_dropped = dropped_.load(std::memory_order_relaxed);
    info.queue_depth = out_.size();
    info.max_queue_depth = out_.max_depth();
    if (tb != nullptr) {
        const auto& sched = tb->context().sched();
        info.sim_time_s = sched.now().to_seconds();
        info.pace_drift_s = sched.pacing_drift();
        info.pace_max_drift_s = sched.pacing_max_drift();
    }
}

void session::send_stats(core::testbench& tb) {
    wire::stats_info info;
    fill_stats(info, &tb);
    out_.push_control({wire::msg_type::stats, wire::encode_stats(info)});
    wake();
}

void session::stream_new_rows(core::testbench& tb) {
    const util::memory_trace& trace = tb.trace();
    const auto& times = trace.times();
    bool pushed = false;
    for (auto& [probe, sub] : subs_) {
        while (sub.next < times.size()) {
            const std::size_t n =
                std::min<std::size_t>(times.size() - sub.next, cfg_.max_batch_samples);
            wire::sample_batch batch;
            batch.probe = probe;
            batch.first_index = sub.next;
            batch.dropped = sub.dropped;
            batch.times.reserve(n);
            batch.values.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                batch.times.push_back(times[sub.next + i]);
                batch.values.push_back(trace.row(sub.next + i)[sub.column]);
            }
            // The kernel-side push never blocks: a full queue means the
            // consumer is slow, and the batch is dropped with its count —
            // the next delivered batch carries the gap.
            if (out_.try_push_samples(
                    {wire::msg_type::samples, wire::encode_samples(batch)})) {
                streamed_.fetch_add(n, std::memory_order_relaxed);
                pushed = true;
            } else {
                sub.dropped += n;
                dropped_.fetch_add(n, std::memory_order_relaxed);
            }
            sub.next += n;
        }
    }
    if (pushed) wake();
}

void session::handle_command(const wire::frame& f, core::testbench& tb) {
    switch (f.type) {
        case wire::msg_type::param: {
            const wire::param_poke poke =
                wire::decode_poke(f.payload.data(), f.payload.size());
            try {
                tb.poke(poke.name, poke.value);
            } catch (const util::error& e) {
                send_error(e.what());
            }
            break;
        }
        case wire::msg_type::subscribe: {
            const wire::subscribe_request req =
                wire::decode_subscribe(f.payload.data(), f.payload.size());
            if (!req.on) {
                subs_.erase(req.probe);
                break;
            }
            const std::vector<std::string> names = tb.probe_names();
            const auto it = std::find(names.begin(), names.end(), req.probe);
            if (it == names.end()) {
                send_error("sim_server: no probe named '" + req.probe + "'");
                break;
            }
            subscription sub;
            sub.column = static_cast<std::size_t>(it - names.begin());
            subs_.emplace(req.probe, sub);  // streams from sample 0
            break;
        }
        case wire::msg_type::pace: {
            const wire::pace_info req =
                wire::decode_pace(f.payload.data(), f.payload.size());
            auto& sched = tb.context().sched();
            sched.set_pacing(req.real_time_factor);
            wire::pace_info reply;
            reply.real_time_factor = sched.pacing_factor();
            reply.drift_s = sched.pacing_drift();
            reply.max_drift_s = sched.pacing_max_drift();
            out_.push_control({wire::msg_type::pace, wire::encode_pace(reply)});
            wake();
            break;
        }
        case wire::msg_type::run_state: {
            const bool running =
                wire::decode_run_state(f.payload.data(), f.payload.size());
            if (running && paused_) {
                // Re-anchor pacing so the paused wall-clock interval does
                // not count as lag (no catch-up sprint on resume).
                auto& sched = tb.context().sched();
                if (sched.pacing_factor() > 0.0) sched.set_pacing(sched.pacing_factor());
            }
            paused_ = !running;
            break;
        }
        case wire::msg_type::stats:
            // On-demand telemetry snapshot; the reply reuses the same frame
            // type, so a client can tell push from reply only by having asked.
            send_stats(tb);
            break;
        case wire::msg_type::close:
            close_requested_ = true;
            break;
        default:
            send_error("sim_server: unexpected frame type in session");
            break;
    }
}

void session::worker_body() {
    std::unique_ptr<core::testbench> tb;
    try {
        tb = core::scenario::find(req_.scenario).build(req_.overrides);
        util::require(tb->stop_time() > de::time::zero(), "sim_server",
                      "scenario '" + req_.scenario +
                          "' sets no stop time; sessions need a bounded run");
        // No explicit elaborate: the first run() slice attaches the trace
        // recorder and then elaborates, the same order as an offline run —
        // a different registration order would shift the t=0 sample and
        // break bit-identity with offline waveforms.
    } catch (const std::exception& e) {
        send_error(e.what());
        send_close(wire::close_reason::failed, nullptr);
        finished_.store(true, std::memory_order_release);
        wake();
        return;
    }

    wire::session_info info;
    info.session_id = cfg_.id;
    info.stop_time_s = tb->stop_time().to_seconds();
    info.sample_period_s = tb->sample_period().to_seconds();
    info.probes = tb->probe_names();
    out_.push_control({wire::msg_type::opened, wire::encode_opened(info)});
    wake();

    wire::close_reason reason = wire::close_reason::finished;
    try {
        for (;;) {
            // Apply every pending control frame between slices.
            std::deque<wire::frame> pending;
            bool stopping = false;
            {
                std::unique_lock<std::mutex> lock(command_mutex_);
                if (paused_ && commands_.empty() && !stop_requested_) {
                    command_cv_.wait(lock, [this] {
                        return !commands_.empty() || stop_requested_;
                    });
                }
                pending.swap(commands_);
                stopping = stop_requested_;
            }
            if (stopping) {
                // Peer is gone: exit without flushing — nobody is reading.
                finished_.store(true, std::memory_order_release);
                return;
            }
            for (const wire::frame& f : pending) handle_command(f, *tb);
            if (close_requested_) {
                stream_new_rows(*tb);
                reason = wire::close_reason::client_request;
                break;
            }
            if (paused_) continue;

            const de::time now = tb->context().now();
            const de::time stop = tb->stop_time();
            if (now >= stop) {
                stream_new_rows(*tb);
                break;  // reason stays `finished`
            }
            {
                SCA_TRACE_SPAN_T(&tb->context().tracer(), "server.slice", "server",
                                 now.to_seconds());
                tb->run(std::min(cfg_.slice, stop - now));
                stream_new_rows(*tb);
            }
            const std::uint64_t done =
                slices_.fetch_add(1, std::memory_order_relaxed) + 1;
            if (cfg_.stats_every_slices > 0 && done % cfg_.stats_every_slices == 0) {
                send_stats(*tb);
            }
        }
        send_close(reason, tb.get());
    } catch (const std::exception& e) {
        send_error(e.what());
        send_close(wire::close_reason::failed, tb.get());
    }
    finished_.store(true, std::memory_order_release);
    wake();
}

}  // namespace sca::server
