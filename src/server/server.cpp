#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/net.hpp"
#include "core/scenario.hpp"
#include "server/session.hpp"
#include "util/report.hpp"

namespace sca::server {

namespace net = core::net;
namespace wire = core::wire;

namespace {

/// Outbound bytes buffered per connection before the server stops pulling
/// from the session queue — beyond this the backpressure moves to the queue,
/// where sample batches drop instead of growing the heap without bound.
constexpr std::size_t k_outbuf_high_watermark = 256 * 1024;

constexpr std::size_t k_read_chunk = 64 * 1024;

}  // namespace

// ------------------------------------------------------------- connection --

struct sim_server::connection {
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_pos = 0;  ///< bytes of outbuf already written
    std::unique_ptr<session> sess;
    bool dead = false;              ///< peer gone / protocol violation
    bool close_after_flush = false; ///< finish writing outbuf, then close
    bool counted_finished = false;  ///< finished_sessions_ bumped already
};

// -------------------------------------------------------------- sim_server --

sim_server::sim_server(options opt) : opt_(std::move(opt)) {}

sim_server::~sim_server() { stop(); }

void sim_server::start() {
    util::require(!started_, "sim_server", "start() called twice");
    int pipefd[2];
    util::require(::pipe(pipefd) == 0, "sim_server",
                  std::string("pipe failed: ") + std::strerror(errno));
    wake_read_fd_ = pipefd[0];
    wake_write_fd_ = pipefd[1];
    net::set_nonblocking(wake_read_fd_);
    net::set_nonblocking(wake_write_fd_);

    if (opt_.tcp) {
        port_ = opt_.port;
        listen_tcp_fd_ = net::listen_tcp(port_);
        net::set_nonblocking(listen_tcp_fd_);
    }
    if (!opt_.unix_path.empty()) {
        listen_unix_fd_ = net::listen_unix(opt_.unix_path);
        net::set_nonblocking(listen_unix_fd_);
    }

    stop_requested_.store(false, std::memory_order_relaxed);
    io_ = std::thread([this] { io_body(); });
    started_ = true;
}

void sim_server::stop() {
    if (!started_) return;
    stop_requested_.store(true, std::memory_order_release);
    wake();
    io_.join();
    if (listen_tcp_fd_ >= 0) ::close(listen_tcp_fd_);
    if (listen_unix_fd_ >= 0) {
        ::close(listen_unix_fd_);
        ::unlink(opt_.unix_path.c_str());
    }
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    listen_tcp_fd_ = listen_unix_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
    started_ = false;
}

void sim_server::wake() const {
    const std::uint8_t byte = 1;
    // A full pipe already guarantees a pending wake-up; EAGAIN is success.
    [[maybe_unused]] const ssize_t w = ::write(wake_write_fd_, &byte, 1);
}

void sim_server::accept_clients(int listen_fd, bool tcp) {
    for (;;) {
        const int fd = net::accept(listen_fd, tcp);
        if (fd < 0) return;  // nothing more pending
        net::set_nonblocking(fd);
        auto conn = std::make_unique<connection>();
        conn->fd = fd;
        conns_.push_back(std::move(conn));
    }
}

void sim_server::queue_reply(connection& c, wire::msg_type type,
                             const std::vector<std::uint8_t>& payload) {
    wire::append_frame(c.outbuf, type, payload);
}

void sim_server::handle_frame(connection& c, const wire::frame& f) {
    switch (f.type) {
        case wire::msg_type::hello:
            // decode_hello throws on any other format version, which
            // on_readable answers with an error frame and a hang-up.
            (void)wire::decode_hello(f.payload.data(), f.payload.size());
            queue_reply(c, wire::msg_type::hello,
                        wire::encode_hello(wire::k_format_version));
            break;
        case wire::msg_type::catalog: {
            std::vector<wire::catalog_entry> entries;
            for (const std::string& name : core::scenario::names()) {
                entries.push_back({name, core::scenario::find(name).defaults()});
            }
            queue_reply(c, wire::msg_type::catalog, wire::encode_catalog(entries));
            break;
        }
        case wire::msg_type::open: {
            if (c.sess) {
                queue_reply(c, wire::msg_type::error,
                            wire::encode_error(
                                "sim_server: connection already has an open session"));
                break;
            }
            const wire::open_request req =
                wire::decode_open(f.payload.data(), f.payload.size());
            session::config cfg;
            cfg.id = next_session_id_++;
            cfg.slice = req.slice_us > 0
                            ? de::time(static_cast<double>(req.slice_us),
                                       de::time_unit::us)
                            : opt_.default_slice;
            cfg.queue_capacity = opt_.queue_capacity;
            cfg.max_batch_samples = opt_.max_batch_samples;
            cfg.stats_every_slices = opt_.stats_every_slices;
            cfg.wake = [this] { wake(); };
            c.sess = std::make_unique<session>(std::move(cfg), req);
            c.sess->start();
            sessions_opened_.fetch_add(1, std::memory_order_relaxed);
            active_sessions_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        case wire::msg_type::param:
        case wire::msg_type::subscribe:
        case wire::msg_type::pace:
        case wire::msg_type::run_state:
        case wire::msg_type::stats:
        case wire::msg_type::close:
            if (c.sess) {
                c.sess->enqueue(f);
            } else {
                queue_reply(c, wire::msg_type::error,
                            wire::encode_error("sim_server: no open session"));
            }
            break;
        default:
            // A worker-protocol frame (job/result/shutdown/header) on a
            // session socket: tell the client and hang up after the flush.
            queue_reply(
                c, wire::msg_type::error,
                wire::encode_error("sim_server: frame type not valid on a session "
                                   "connection"));
            c.close_after_flush = true;
            break;
    }
}

void sim_server::on_readable(connection& c) {
    for (;;) {
        const std::size_t old = c.inbuf.size();
        c.inbuf.resize(old + k_read_chunk);
        const ssize_t r = ::recv(c.fd, c.inbuf.data() + old, k_read_chunk, 0);
        if (r > 0) {
            c.inbuf.resize(old + static_cast<std::size_t>(r));
            if (static_cast<std::size_t>(r) < k_read_chunk) break;
            continue;
        }
        c.inbuf.resize(old);
        if (r == 0) {  // orderly shutdown
            c.dead = true;
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        c.dead = true;  // ECONNRESET and friends
        return;
    }

    // Incremental parse: a partial frame waits for more bytes, a torn or
    // corrupt one (bad magic/length/checksum) is a protocol violation.
    std::size_t offset = 0;
    try {
        while (offset < c.inbuf.size()) {
            const std::size_t need =
                wire::frame_size_hint(c.inbuf.data() + offset, c.inbuf.size() - offset);
            if (need == 0 || c.inbuf.size() - offset < need) break;
            wire::frame f;
            (void)wire::unpack_frame(c.inbuf.data(), c.inbuf.size(), offset, f);
            handle_frame(c, f);
            if (c.close_after_flush) break;
        }
    } catch (const std::exception& e) {
        queue_reply(c, wire::msg_type::error, wire::encode_error(e.what()));
        c.close_after_flush = true;
    }
    c.inbuf.erase(c.inbuf.begin(),
                  c.inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
}

void sim_server::pump_outbound(connection& c) {
    if (!c.sess) return;
    if (!c.counted_finished && c.sess->finished()) {
        c.counted_finished = true;
        finished_sessions_.fetch_add(1, std::memory_order_relaxed);
    }
    outbound_frame f;
    while (c.outbuf.size() - c.out_pos < k_outbuf_high_watermark &&
           c.sess->out().pop(f)) {
        queue_reply(c, f.type, f.payload);
    }
}

bool sim_server::flush(connection& c) {
    while (c.out_pos < c.outbuf.size()) {
        const ssize_t w = ::send(c.fd, c.outbuf.data() + c.out_pos,
                                 c.outbuf.size() - c.out_pos, MSG_NOSIGNAL);
        if (w > 0) {
            c.out_pos += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
            break;  // wait for POLLOUT
        }
        return false;  // EPIPE/ECONNRESET: peer gone
    }
    if (c.out_pos == c.outbuf.size()) {
        c.outbuf.clear();
        c.out_pos = 0;
    } else if (c.out_pos > k_outbuf_high_watermark) {
        c.outbuf.erase(c.outbuf.begin(),
                       c.outbuf.begin() + static_cast<std::ptrdiff_t>(c.out_pos));
        c.out_pos = 0;
    }
    return true;
}

void sim_server::destroy_connection(std::size_t index) {
    connection& c = *conns_[index];
    if (c.sess) {
        c.sess->request_stop();
        c.sess->join();
        active_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
    ::close(c.fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(index));
}

void sim_server::io_body() {
    std::vector<pollfd> fds;
    while (!stop_requested_.load(std::memory_order_acquire)) {
        // Move session frames into per-connection buffers first so the poll
        // set below knows which sockets have bytes waiting to go out.
        for (auto& cp : conns_) {
            pump_outbound(*cp);
        }

        fds.clear();
        fds.push_back({wake_read_fd_, POLLIN, 0});
        if (listen_tcp_fd_ >= 0) fds.push_back({listen_tcp_fd_, POLLIN, 0});
        if (listen_unix_fd_ >= 0) fds.push_back({listen_unix_fd_, POLLIN, 0});
        const std::size_t first_conn = fds.size();
        for (auto& cp : conns_) {
            short events = POLLIN;
            if (cp->out_pos < cp->outbuf.size()) events |= POLLOUT;
            fds.push_back({cp->fd, events, 0});
        }

        const int n = ::poll(fds.data(), fds.size(), 100);
        if (n < 0) {
            if (errno == EINTR) continue;
            util::report_fatal("sim_server",
                               std::string("poll failed: ") + std::strerror(errno));
        }

        std::size_t k = 0;
        if (fds[k].revents & POLLIN) {  // drain the wake pipe
            std::uint8_t buf[256];
            while (::read(wake_read_fd_, buf, sizeof buf) > 0) {
            }
        }
        ++k;
        if (listen_tcp_fd_ >= 0) {
            if (fds[k].revents & POLLIN) accept_clients(listen_tcp_fd_, true);
            ++k;
        }
        if (listen_unix_fd_ >= 0) {
            if (fds[k].revents & POLLIN) accept_clients(listen_unix_fd_, false);
            ++k;
        }

        // New connections accepted above are not in fds; they are polled on
        // the next pass.  Iterate the snapshot only.
        const std::size_t snapshot = conns_.size() < fds.size() - first_conn
                                         ? conns_.size()
                                         : fds.size() - first_conn;
        for (std::size_t i = 0; i < snapshot; ++i) {
            connection& c = *conns_[i];
            const short rev = fds[first_conn + i].revents;
            if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
                // Keep reading after POLLHUP: the peer may have sent frames
                // then shut down; recv() returning 0 marks the end.
                if (!(rev & POLLIN)) c.dead = true;
            }
            if (!c.dead && (rev & POLLIN)) on_readable(c);
            pump_outbound(c);
            if (!c.dead && !flush(c)) c.dead = true;
            if (!c.dead && c.close_after_flush && c.out_pos == c.outbuf.size()) {
                c.dead = true;
            }
        }

        for (std::size_t i = conns_.size(); i-- > 0;) {
            if (conns_[i]->dead) destroy_connection(i);
        }
    }

    for (std::size_t i = conns_.size(); i-- > 0;) destroy_connection(i);
}

// ------------------------------------------------------------------ client --

client client::connect_tcp(const std::string& host, std::uint16_t port) {
    return client(net::connect_tcp(host, port));
}

client client::connect_unix(const std::string& path) {
    return client(net::connect_unix(path));
}

void client::send(wire::msg_type type, const std::vector<std::uint8_t>& payload) {
    util::require(wire::write_frame(fd_.get(), type, payload), "sim_client",
                  "server closed the connection");
}

wire::frame client::read_frame() {
    wire::frame f;
    util::require(wire::read_frame(fd_.get(), f), "sim_client",
                  "server closed the connection");
    return f;
}

std::uint8_t client::hello() {
    send(wire::msg_type::hello, wire::encode_hello(wire::k_format_version));
    const wire::frame f = read_frame();
    util::require(f.type == wire::msg_type::hello, "sim_client",
                  "expected a hello reply");
    return wire::decode_hello(f.payload.data(), f.payload.size());
}

std::vector<wire::catalog_entry> client::catalog() {
    send(wire::msg_type::catalog, {});
    const wire::frame f = read_frame();
    util::require(f.type == wire::msg_type::catalog, "sim_client",
                  "expected a catalog reply");
    return wire::decode_catalog(f.payload.data(), f.payload.size());
}

void client::open_async(const std::string& scenario, const core::params& overrides,
                        std::uint64_t slice_us) {
    wire::open_request req;
    req.scenario = scenario;
    req.overrides = overrides;
    req.slice_us = slice_us;
    send(wire::msg_type::open, wire::encode_open(req));
}

wire::session_info client::await_opened() {
    // The opened reply comes from the session worker; an error frame (and
    // then a failed close) arrives instead when the scenario cannot build.
    for (;;) {
        const wire::frame f = read_frame();
        if (f.type == wire::msg_type::opened) {
            return wire::decode_opened(f.payload.data(), f.payload.size());
        }
        if (f.type == wire::msg_type::error) {
            util::report_fatal(
                "sim_client", wire::decode_error(f.payload.data(), f.payload.size()));
        }
        absorb(f);
    }
}

wire::session_info client::open(const std::string& scenario,
                                const core::params& overrides,
                                std::uint64_t slice_us) {
    open_async(scenario, overrides, slice_us);
    wire::session_info info = await_opened();
    resume();  // sessions open paused; start the kernel right away
    return info;
}

void client::subscribe(const std::string& probe, bool on) {
    wire::subscribe_request req;
    req.probe = probe;
    req.on = on;
    send(wire::msg_type::subscribe, wire::encode_subscribe(req));
}

void client::poke(const std::string& name, double value) {
    send(wire::msg_type::param, wire::encode_poke({name, value}));
}

void client::pace(double real_time_factor) {
    wire::pace_info info;
    info.real_time_factor = real_time_factor;
    send(wire::msg_type::pace, wire::encode_pace(info));
}

void client::pause() { send(wire::msg_type::run_state, wire::encode_run_state(false)); }

void client::resume() { send(wire::msg_type::run_state, wire::encode_run_state(true)); }

void client::request_close() { send(wire::msg_type::close, {}); }

void client::stats() { send(wire::msg_type::stats, {}); }

void client::absorb(const wire::frame& f) {
    switch (f.type) {
        case wire::msg_type::samples: {
            const wire::sample_batch batch =
                wire::decode_samples(f.payload.data(), f.payload.size());
            waveform& w = waves_[batch.probe];
            // Fresh server-side drops show up as a first-index jump past what
            // we have received, together with a bumped cumulative drop count.
            if (batch.dropped > w.dropped ||
                batch.first_index != w.times.size() + batch.dropped) {
                ++w.gaps;
            }
            w.times.insert(w.times.end(), batch.times.begin(), batch.times.end());
            w.values.insert(w.values.end(), batch.values.begin(), batch.values.end());
            w.dropped = batch.dropped;
            ++w.batches;
            break;
        }
        case wire::msg_type::pace:
            last_pace_ = wire::decode_pace(f.payload.data(), f.payload.size());
            break;
        case wire::msg_type::stats:
            last_stats_ = wire::decode_stats(f.payload.data(), f.payload.size());
            ++stats_frames_;
            break;
        case wire::msg_type::error:
            errors_.push_back(wire::decode_error(f.payload.data(), f.payload.size()));
            break;
        default:
            break;  // hello/catalog replies read explicitly elsewhere
    }
}

wire::close_info client::drain() {
    for (;;) {
        const wire::frame f = read_frame();
        if (f.type == wire::msg_type::close) {
            return wire::decode_close(f.payload.data(), f.payload.size());
        }
        absorb(f);
    }
}

const client::waveform& client::wave(const std::string& probe) const {
    const auto it = waves_.find(probe);
    util::require(it != waves_.end(), "sim_client",
                  "no samples received for probe '" + probe + "'");
    return it->second;
}

}  // namespace sca::server
