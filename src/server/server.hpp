// Simulation-as-a-service front end: a long-lived, session-multiplexed
// streaming server on top of the scenario registry (the service catalog),
// the 'SCA1' wire protocol (core/run_protocol), and per-context isolation
// (core/scenario).
//
//   sca::server::sim_server srv;           // 127.0.0.1, ephemeral port
//   srv.start();
//   auto cl = sca::server::client::connect_tcp("127.0.0.1", srv.port());
//   cl.hello();
//   auto info = cl.open("adaptive_receiver", {{"adaptive", 1.0}});
//   cl.subscribe(info.probes.front());
//   cl.pace(10.0);                          // 10x faster than real time
//   auto stats = cl.drain();                // stream until the run finishes
//
// Architecture: one poll()-driven I/O thread owns every socket — the TCP
// and AF_UNIX listeners and all connected clients — and never simulates;
// each open session steps its kernel on a dedicated worker thread in
// bounded sim-time slices (session.hpp).  Worker -> I/O hand-off is a
// bounded per-session frame queue (stream_queue.hpp) plus a self-pipe wake;
// a slow client therefore drops sample batches (counted, reported) instead
// of ever stalling a kernel — and a stalled client cannot stall the I/O
// thread either, because client sockets are non-blocking with a bounded
// outbound buffer.
#ifndef SCA_SERVER_SERVER_HPP
#define SCA_SERVER_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/run_protocol.hpp"
#include "kernel/time.hpp"

namespace sca::server {

class session;

class sim_server {
public:
    struct options {
        bool tcp = true;              ///< listen on 127.0.0.1 (port below)
        std::uint16_t port = 0;       ///< 0 = ephemeral; see port() after start()
        std::string unix_path;        ///< AF_UNIX listener when non-empty
        de::time default_slice = de::time(1.0, de::time_unit::ms);
        std::size_t queue_capacity = 1024;    ///< outbound frames per session
        std::size_t max_batch_samples = 512;  ///< samples per streamed frame
        /// Push a stats frame every N kernel slices (0 disables the periodic
        /// push; clients can still request one with client::stats()).
        std::uint64_t stats_every_slices = 64;
    };

    sim_server() : sim_server(options{}) {}
    explicit sim_server(options opt);
    ~sim_server();  // stop()

    sim_server(const sim_server&) = delete;
    sim_server& operator=(const sim_server&) = delete;

    /// Bind the listeners and spawn the I/O thread.
    void start();

    /// Tear everything down: abandon open sessions (their workers exit after
    /// the current slice), close every socket, join the I/O thread.
    void stop();

    /// Bound TCP port (valid after start() when options.tcp).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    // --- statistics ---------------------------------------------------------
    [[nodiscard]] std::uint64_t sessions_opened() const noexcept {
        return sessions_opened_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t active_sessions() const noexcept {
        return active_sessions_.load(std::memory_order_relaxed);
    }
    /// Sessions whose kernel worker has run to completion (the close frame
    /// may still be queued) — lets tests and monitors wait for quiescence
    /// without guessing at sleep durations.
    [[nodiscard]] std::uint64_t finished_sessions() const noexcept {
        return finished_sessions_.load(std::memory_order_relaxed);
    }

private:
    struct connection;

    void io_body();
    void accept_clients(int listen_fd, bool tcp);
    void on_readable(connection& c);
    void handle_frame(connection& c, const core::wire::frame& f);
    void queue_reply(connection& c, core::wire::msg_type type,
                     const std::vector<std::uint8_t>& payload);
    void pump_outbound(connection& c);
    [[nodiscard]] bool flush(connection& c);  // false = peer gone
    void destroy_connection(std::size_t index);
    void wake() const;

    options opt_;
    std::uint16_t port_ = 0;
    int listen_tcp_fd_ = -1;
    int listen_unix_fd_ = -1;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;
    std::thread io_;
    bool started_ = false;
    std::atomic<bool> stop_requested_{false};
    std::atomic<std::uint64_t> sessions_opened_{0};
    std::atomic<std::uint64_t> active_sessions_{0};
    std::atomic<std::uint64_t> finished_sessions_{0};
    std::uint64_t next_session_id_ = 1;  // I/O thread only
    std::vector<std::unique_ptr<connection>> conns_;  // I/O thread only
};

// ----------------------------------------------------------------- client --

/// Minimal blocking client for the session protocol — what tests, benches
/// and hardware-in-the-loop front ends use to talk to a sim_server.  One
/// instance drives one session; not thread-safe.
class client {
public:
    client() = default;
    ~client();

    client(client&& other) noexcept;
    client& operator=(client&& other) noexcept;
    client(const client&) = delete;
    client& operator=(const client&) = delete;

    [[nodiscard]] static client connect_tcp(const std::string& host, std::uint16_t port);
    [[nodiscard]] static client connect_unix(const std::string& path);

    /// Version handshake; returns the server's format version, which
    /// always equals wire::k_format_version (a server with another version
    /// answers with an error frame, and this throws).
    std::uint8_t hello();

    /// The server's scenario catalog (names + default parameters).
    [[nodiscard]] std::vector<core::wire::catalog_entry> catalog();

    /// Open a session and start it immediately: open_async + await_opened +
    /// resume.  Throws sca::util::error when the server reports a failure.
    core::wire::session_info open(const std::string& scenario,
                                  const core::params& overrides = {},
                                  std::uint64_t slice_us = 0);

    /// Send the open request without waiting for the reply.  Sessions open
    /// paused: the kernel does not advance until resume() — so every
    /// configuration frame (subscribe/pace/poke) sent before resume() is
    /// applied before the first kernel slice, guaranteed by TCP ordering.
    /// This is the race-free way to configure a session that streams from
    /// t=0: open_async, configure, await_opened(), resume().
    void open_async(const std::string& scenario, const core::params& overrides = {},
                    std::uint64_t slice_us = 0);
    /// Block until the opened reply for a preceding open_async().
    core::wire::session_info await_opened();

    void subscribe(const std::string& probe, bool on = true);
    void poke(const std::string& name, double value);
    void pace(double real_time_factor);
    void pause();
    void resume();
    /// Request an immediate stats frame (the session also pushes one every
    /// options::stats_every_slices slices); the reply arrives in-stream and
    /// is absorbed into last_stats().
    void stats();
    /// Ask the server to end the session (the close reply arrives in-stream;
    /// use drain() to collect it).
    void request_close();

    /// Samples accumulated for one subscribed probe.
    struct waveform {
        std::vector<double> times;
        std::vector<double> values;
        std::uint64_t dropped = 0;  ///< cumulative server-side sample drops
        std::uint64_t batches = 0;
        std::uint64_t gaps = 0;  ///< batches that did not start where expected
    };

    /// Read frames until the server's close reply, accumulating samples per
    /// probe (wave()), pace replies (last_pace()) and error frames
    /// (errors()).  Returns the final session statistics.
    core::wire::close_info drain();

    /// Read one raw frame (blocking); throws on EOF.
    core::wire::frame read_frame();
    /// Process a frame the way drain() would (accumulate samples/pace/errors).
    void absorb(const core::wire::frame& f);

    [[nodiscard]] const waveform& wave(const std::string& probe) const;
    [[nodiscard]] bool has_wave(const std::string& probe) const {
        return waves_.count(probe) != 0;
    }
    [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
        return errors_;
    }
    [[nodiscard]] const core::wire::pace_info& last_pace() const noexcept {
        return last_pace_;
    }
    /// Most recent stats frame seen (periodic push or stats() reply).
    [[nodiscard]] const core::wire::stats_info& last_stats() const noexcept {
        return last_stats_;
    }
    /// Stats frames absorbed so far (0 = last_stats() not yet meaningful).
    [[nodiscard]] std::uint64_t stats_frames() const noexcept { return stats_frames_; }

    void close();
    [[nodiscard]] int fd() const noexcept { return fd_; }

private:
    explicit client(int fd) : fd_(fd) {}

    void send(core::wire::msg_type type, const std::vector<std::uint8_t>& payload);

    int fd_ = -1;
    std::map<std::string, waveform> waves_;
    std::vector<std::string> errors_;
    core::wire::pace_info last_pace_{};
    core::wire::stats_info last_stats_{};
    std::uint64_t stats_frames_ = 0;
};

}  // namespace sca::server

#endif  // SCA_SERVER_SERVER_HPP
