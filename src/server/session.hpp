// One live client session of the streaming simulation server: a registered
// scenario instantiated in its own simulation_context and stepped on a
// dedicated worker thread in bounded sim-time slices, so control frames
// (pause/resume, live parameter pokes, subscribe/unsubscribe, pacing,
// teardown) interleave with kernel execution at slice granularity.
//
// Thread contract: the server's I/O thread calls enqueue()/request_stop()
// and drains out(); everything that touches the testbench — building it,
// stepping the kernel, applying pokes, reading the trace — happens on this
// session's worker thread only.  Per-session isolation is the PR-3 contract:
// each testbench owns an independent simulation_context, thread-local
// current-context and report stores keep concurrent sessions from sharing
// mutable state.
#ifndef SCA_SERVER_SESSION_HPP
#define SCA_SERVER_SESSION_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "core/run_protocol.hpp"
#include "kernel/time.hpp"
#include "server/stream_queue.hpp"

namespace sca::core {
class testbench;
}

namespace sca::server {

class session {
public:
    struct config {
        std::uint64_t id = 0;
        de::time slice;  ///< kernel advance per control poll (bounded latency)
        std::size_t queue_capacity = 1024;    ///< outbound frames before dropping
        std::size_t max_batch_samples = 512;  ///< samples per streamed frame
        std::uint64_t stats_every_slices = 64;  ///< periodic stats push (0 = off)
        std::function<void()> wake;           ///< notify the I/O thread: frames queued
    };

    session(config cfg, core::wire::open_request req);
    ~session();  // request_stop + join

    session(const session&) = delete;
    session& operator=(const session&) = delete;

    /// Spawn the worker thread (build, elaborate, announce, step).
    void start();

    /// Hand a decoded control frame (param/subscribe/pace/run_state/close)
    /// to the worker; applied between kernel slices.
    void enqueue(core::wire::frame f);

    /// Abandon the session (client disconnected, server stopping): the
    /// worker exits after its current slice without sending further frames.
    void request_stop();

    void join();

    [[nodiscard]] stream_queue& out() noexcept { return out_; }
    [[nodiscard]] std::uint64_t id() const noexcept { return cfg_.id; }
    [[nodiscard]] bool finished() const noexcept {
        return finished_.load(std::memory_order_acquire);
    }

    // --- statistics (readable from any thread) -----------------------------
    [[nodiscard]] std::uint64_t samples_streamed() const noexcept {
        return streamed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t samples_dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    /// Kernel slices executed so far (one per bounded run() advance).
    [[nodiscard]] std::uint64_t slices() const noexcept {
        return slices_.load(std::memory_order_relaxed);
    }

private:
    struct subscription {
        std::size_t column = 0;       ///< trace channel index
        std::uint64_t next = 0;       ///< next sample index to stream
        std::uint64_t dropped = 0;    ///< samples lost to backpressure
    };

    void worker_body();
    void handle_command(const core::wire::frame& f, core::testbench& tb);
    void stream_new_rows(core::testbench& tb);
    void send_close(core::wire::close_reason reason, core::testbench* tb);
    void send_error(const std::string& message);
    void send_stats(core::testbench& tb);
    /// The one filler of the session statistics, for stats and close frames
    /// alike; `tb` is null when the scenario failed to build.
    void fill_stats(core::wire::stats_info& info, core::testbench* tb) const;
    void wake();

    config cfg_;
    core::wire::open_request req_;
    stream_queue out_;
    std::thread worker_;

    std::mutex command_mutex_;
    std::condition_variable command_cv_;
    std::deque<core::wire::frame> commands_;
    bool stop_requested_ = false;  // guarded by command_mutex_

    // Worker-local state (no locking: only worker_body touches these).
    std::map<std::string, subscription> subs_;
    // Sessions open paused: the kernel does not advance until the client
    // sends run_state(running).  TCP ordering then guarantees that every
    // configuration frame sent before the start command (subscriptions,
    // pokes, pacing) is applied before the first slice — no race between
    // the client's setup burst and a fast simulation.
    bool paused_ = true;
    bool close_requested_ = false;

    std::atomic<bool> finished_{false};
    std::atomic<std::uint64_t> streamed_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> slices_{0};
};

}  // namespace sca::server

#endif  // SCA_SERVER_SESSION_HPP
