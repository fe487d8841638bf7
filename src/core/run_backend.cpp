#include "core/run_backend.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "core/net.hpp"
#include "core/run_protocol.hpp"
#include "util/report.hpp"

namespace sca::core {

// -------------------------------------------------------------- worker loop --

namespace {

/// Blocking worker loop over a connected stream fd — the worker half of the
/// wire protocol, shared by forked subprocess workers and TCP worker
/// servers.  Send this worker's campaign `header` and go on only when the
/// parent's is equal (the parent names a mismatch); then read a job frame,
/// execute run_one(index), write the result frame, repeat until shutdown or
/// EOF.  The header goes out unasked, so the parent's wait for it overlaps
/// the worker's start-up instead of adding a round trip.  With
/// `header_timeout_ms` > 0, each read of the parent's header waits at most
/// that long.  Returns normally on clean shutdown and when the parent
/// disappears; protocol violations and an expired wait throw.
void run_worker_loop(const run_set& rs, int fd, const std::vector<std::uint8_t>& header,
                     int header_timeout_ms = 0) {
    wire::frame f;
    if (header_timeout_ms > 0) net::set_receive_timeout(fd, header_timeout_ms);
    if (!wire::write_frame(fd, wire::msg_type::header, header) || !wire::read_frame(fd, f) ||
        f.type != wire::msg_type::header || f.payload != header) {
        return;
    }
    // Between jobs a parent may be busy with other workers for any time.
    if (header_timeout_ms > 0) net::set_receive_timeout(fd, 0);
    for (;;) {
        if (!wire::read_frame(fd, f)) return;  // parent gone: stop quietly
        if (f.type == wire::msg_type::shutdown) return;
        util::require(f.type == wire::msg_type::job, "run_backend",
                      "unexpected frame type on worker");
        const std::uint64_t index = wire::decode_job(f.payload.data(), f.payload.size());
        const run_result res = rs.run_one(static_cast<std::size_t>(index));
        if (!wire::write_frame(fd, wire::msg_type::result, wire::encode_result(res))) {
            return;  // parent gone mid-result
        }
    }
}

}  // namespace

namespace detail {

// ---------------------------------------------------------- in-thread pool --

void execute_in_thread(const run_set& rs, const std::vector<std::size_t>& pending,
                       std::vector<run_result>& results, unsigned workers,
                       const result_sink& deliver) {
    workers = static_cast<unsigned>(std::min<std::size_t>(workers, pending.size()));
    if (workers <= 1) {
        for (std::size_t i : pending) {
            results[i] = rs.run_one(i);
            deliver(results[i], /*completed=*/true);
        }
        return;
    }
    // Dynamic work stealing over the pending indices; every run builds its
    // own context on whichever thread claims it, and writes only its own
    // slot.  Delivery is serialized so sinks see whole rows.
    std::atomic<std::size_t> next{0};
    std::mutex deliver_mutex;
    auto work = [&](int slot) {
        for (;;) {
            const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= pending.size()) return;
            const std::size_t i = pending[k];
            results[i] = rs.run_one(i);
            results[i].worker = slot;
            const std::lock_guard<std::mutex> lock(deliver_mutex);
            deliver(results[i], /*completed=*/true);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work, static_cast<int>(w));
    for (std::thread& t : pool) t.join();
}

// -------------------------------------------------- parent-side dispatcher --

namespace {

/// One connected worker as the dispatcher sees it: a stream fd, the run
/// index currently executing there (-1 when idle), and — for forked
/// subprocess workers — the pid to reap.
struct worker_conn {
    int fd = -1;
    pid_t pid = -1;                // -1: remote worker, nothing to reap
    std::int64_t in_flight = -1;   // run index on the wire, -1 when idle
    int id = -1;                   // stable worker id stamped into run_result::worker
    std::string name;              // the endpoint, or "worker <id>", for diagnostics
};

/// Open the campaign on a worker connection: send the campaign header and
/// read the one the worker sent.  False when the worker is gone; throws when
/// it serves another campaign or format version.
bool open_campaign(const worker_conn& w, const std::vector<std::uint8_t>& header) {
    if (!wire::write_frame(w.fd, wire::msg_type::header, header)) return false;
    wire::frame f;
    try {
        if (!wire::read_frame(w.fd, f)) return false;
    } catch (const util::error&) {
        return false;  // torn reply: the worker died mid-write
    }
    util::require(f.type == wire::msg_type::header, "run_backend",
                  w.name + " did not answer the campaign header");
    wire::require_header(f.payload, header, w.name);
    return true;
}

/// Shuts down every worker still connected when the dispatcher returns or
/// throws (a refused worker must not leave forked ones waiting on their
/// socket), and reaps the forked ones.
class shutdown_guard {
public:
    explicit shutdown_guard(std::vector<worker_conn>& workers) : workers_(workers) {}
    shutdown_guard(const shutdown_guard&) = delete;
    shutdown_guard& operator=(const shutdown_guard&) = delete;
    ~shutdown_guard() {
        // Every worker gets its shutdown before any is reaped, so they exit
        // in parallel instead of one after another.
        for (worker_conn& w : workers_) {
            try {
                (void)wire::write_frame(w.fd, wire::msg_type::shutdown, {});
            } catch (const util::error&) {
                // A failed shutdown write means the worker is already gone.
            }
            ::close(w.fd);
        }
        for (const worker_conn& w : workers_) {
            if (w.pid >= 0) ::waitpid(w.pid, nullptr, 0);
        }
    }

private:
    std::vector<worker_conn>& workers_;
};

/// Describe how a reaped child died, for the lost-run error message.
std::string describe_exit(pid_t pid) {
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return "worker vanished";
    if (WIFSIGNALED(status)) {
        return "worker killed by signal " + std::to_string(WTERMSIG(status));
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        return "worker exited with status " + std::to_string(WEXITSTATUS(status));
    }
    return "worker exited before finishing its run";
}

/// Fill a lost run's slot with an infrastructure-error result (identity
/// preserved so the row still carries its index and seed).
run_result lost_result(const run_set& rs, std::size_t index, const std::string& why) {
    run_result r;
    r.index = index;
    r.seed = core::detail::derive_seed(rs.base_seed(), index);
    r.ok = false;
    r.error = why + " (run " + std::to_string(index) + " lost mid-flight)";
    return r;
}

/// Provide a replacement worker after a death while jobs remain; receives
/// the current live worker list (so a forked child can close their fds).
using respawn_fn = std::function<worker_conn(const std::vector<worker_conn>&)>;

/// The shared parent-side dispatcher: open the campaign on every worker,
/// hand each idle worker the next pending index, poll the worker fds, slot
/// results as they stream back, and survive worker death.  `respawn`
/// (nullable) provides a replacement worker after a death while jobs remain
/// — the multiprocess backend respawns, the remote backend retires the
/// endpoint instead.
void dispatch(const run_set& rs, const std::vector<std::size_t>& pending,
              std::vector<run_result>& results, std::vector<worker_conn> workers,
              const std::vector<std::uint8_t>& header, const result_sink& deliver,
              const respawn_fn& respawn) {
    const shutdown_guard guard(workers);
    std::deque<std::size_t> queue(pending.begin(), pending.end());
    std::size_t outstanding = pending.size();  // runs not yet slotted

    auto assign = [&](worker_conn& w) -> bool {
        // Give `w` the next job; false when the worker is dead (peer gone).
        while (!queue.empty()) {
            const std::size_t index = queue.front();
            if (!wire::write_frame(w.fd, wire::msg_type::job, wire::encode_job(index))) {
                return false;  // job not sent — stays queued for someone else
            }
            queue.pop_front();
            w.in_flight = static_cast<std::int64_t>(index);
            return true;
        }
        return true;  // nothing left to hand out; worker stays idle
    };

    std::function<void(std::size_t, const std::string&)> retire =
        [&](std::size_t slot, const std::string& why) {
            // A worker died: its in-flight run (if any) is recorded as lost —
            // never re-dispatched, so no run can ever execute twice within one
            // campaign — and a replacement is spawned while jobs remain.
            worker_conn& w = workers[slot];
            ::close(w.fd);
            const std::string detail = w.pid >= 0 ? describe_exit(w.pid) : why;
            if (w.in_flight >= 0) {
                const auto index = static_cast<std::size_t>(w.in_flight);
                results[index] = lost_result(rs, index, detail);
                deliver(results[index], /*completed=*/false);
                --outstanding;
            }
            workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(slot));
            if (!queue.empty() && respawn) {
                workers.push_back(respawn(workers));
                if (!open_campaign(workers.back(), header) || !assign(workers.back())) {
                    retire(workers.size() - 1, "worker died at spawn");
                }
            }
        };

    // Every worker answers the campaign header before the first job goes
    // out; a replacement that retire() spawns is opened and given a job
    // there, so neither loop visits it again.
    for (std::size_t i = 0, unopened = workers.size(); i < unopened;) {
        if (open_campaign(workers[i], header)) {
            ++i;
        } else {
            retire(i, "worker connection closed");
            --unopened;
        }
    }
    for (std::size_t i = 0; i < workers.size();) {
        if (workers[i].in_flight >= 0 || assign(workers[i])) {
            ++i;
        } else {
            retire(i, "worker connection closed");
        }
    }

    while (outstanding > 0) {
        if (workers.empty()) {
            // Every worker is gone and no respawn is possible: record what
            // remains as lost instead of hanging the campaign.
            while (!queue.empty()) {
                const std::size_t index = queue.front();
                queue.pop_front();
                results[index] = lost_result(rs, index, "no workers left");
                deliver(results[index], /*completed=*/false);
                --outstanding;
            }
            break;
        }
        std::vector<pollfd> fds(workers.size());
        for (std::size_t i = 0; i < workers.size(); ++i) {
            fds[i] = {workers[i].fd, POLLIN, 0};
        }
        int rc = ::poll(fds.data(), fds.size(), -1);
        if (rc < 0) {
            if (errno == EINTR) continue;
            util::report_fatal("run_backend",
                               std::string("poll failed: ") + std::strerror(errno));
        }
        for (std::size_t i = 0; i < workers.size();) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                ++i;
                continue;
            }
            bool dead = false;
            try {
                wire::frame f;
                if (!wire::read_frame(workers[i].fd, f)) {
                    dead = true;  // clean EOF: worker gone between frames
                } else {
                    util::require(f.type == wire::msg_type::result, "run_backend",
                                  "unexpected frame type from worker");
                    run_result r = wire::decode_result(f.payload.data(), f.payload.size());
                    const std::size_t index = r.index;
                    util::require(index < results.size(), "run_backend",
                                  "worker reported an out-of-range run index");
                    util::require(workers[i].in_flight >= 0 &&
                                      static_cast<std::size_t>(workers[i].in_flight) ==
                                          index,
                                  "run_backend",
                                  "worker reported a result for a run it was not given");
                    results[index] = std::move(r);
                    results[index].worker = workers[i].id;
                    workers[i].in_flight = -1;
                    deliver(results[index], /*completed=*/true);
                    --outstanding;
                    dead = !assign(workers[i]);
                }
            } catch (const util::error&) {
                dead = true;  // torn frame: worker died mid-write
            }
            if (dead) {
                retire(i, "worker connection lost");
                // workers/fds no longer line up — restart the scan.
                break;
            }
            ++i;
        }
    }
}

}  // namespace

// ------------------------------------------------------------ multiprocess --

namespace {

/// Fork one worker subprocess attached via a socketpair.  The child inherits
/// the whole process image — scenario registry and closures included — so no
/// exec/re-registration step is needed; it must not touch the parent's fds
/// (all other worker sockets are closed first) and leaves via _exit so no
/// parent-side atexit/static-destructor state runs twice.
worker_conn fork_worker(const run_set& rs, const std::vector<worker_conn>& existing,
                        const std::vector<std::uint8_t>& header, int id) {
    int sv[2];
    util::require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0, "run_backend",
                  std::string("socketpair failed: ") + std::strerror(errno));
    const pid_t pid = ::fork();
    util::require(pid >= 0, "run_backend",
                  std::string("fork failed: ") + std::strerror(errno));
    if (pid == 0) {
        ::close(sv[0]);
        for (const worker_conn& w : existing) ::close(w.fd);
        try {
            run_worker_loop(rs, sv[1], header);
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    ::close(sv[1]);
    return worker_conn{sv[0], pid, -1, id, "worker " + std::to_string(id)};
}

}  // namespace

void execute_multiprocess(const run_set& rs, const std::vector<std::size_t>& pending,
                          std::vector<run_result>& results, unsigned workers,
                          const std::vector<std::uint8_t>& header,
                          const result_sink& deliver) {
    workers = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(workers, pending.size())));
    std::vector<worker_conn> conns;
    conns.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        conns.push_back(fork_worker(rs, conns, header, static_cast<int>(w)));
    }
    // Respawned workers get fresh ids so per-worker telemetry never merges
    // a replacement's runs into its predecessor's.
    int next_id = static_cast<int>(workers);
    dispatch(rs, pending, results, std::move(conns), header, deliver,
             [&](const std::vector<worker_conn>& live) {
                 return fork_worker(rs, live, header, next_id++);
             });
}

// -------------------------------------------------------------- remote TCP --

namespace {

int connect_endpoint(const std::string& endpoint) {
    const std::size_t colon = endpoint.rfind(':');
    util::require(colon != std::string::npos, "run_backend",
                  "endpoint '" + endpoint + "' is not of the form ip:port");
    const int port = std::atoi(endpoint.c_str() + colon + 1);
    util::require(port > 0 && port < 65536, "run_backend",
                  "endpoint '" + endpoint + "' has an invalid port");
    return net::connect_tcp(endpoint.substr(0, colon), static_cast<std::uint16_t>(port));
}

}  // namespace

void execute_remote_tcp(const run_set& rs, const std::vector<std::size_t>& pending,
                        std::vector<run_result>& results,
                        const std::vector<std::string>& endpoints,
                        const std::vector<std::uint8_t>& header,
                        const result_sink& deliver) {
    util::require(!endpoints.empty(), "run_backend",
                  "remote_tcp backend needs at least one endpoint "
                  "(run_set::set_endpoints)");
    std::vector<worker_conn> conns;
    conns.reserve(endpoints.size());
    for (const std::string& ep : endpoints) {
        conns.push_back(worker_conn{connect_endpoint(ep), -1, -1,
                                    static_cast<int>(conns.size()), "worker '" + ep + "'"});
    }
    // No respawn: a dead endpoint is retired; its in-flight run is recorded
    // as lost and recomputable via the checkpoint journal.
    dispatch(rs, pending, results, std::move(conns), header, deliver, nullptr);
}

}  // namespace detail

// -------------------------------------------------------------- worker side --

void serve_tcp_workers(const run_set& rs, int listen_fd, unsigned max_sessions) {
    const std::vector<std::uint8_t> header = wire::encode_header(rs.fingerprint());
    for (unsigned served = 0; max_sessions == 0 || served < max_sessions; ++served) {
        const net::fd_owner fd(net::accept(listen_fd, /*tcp=*/true));
        try {
            run_worker_loop(rs, fd.get(), header, worker_header_timeout_ms);
        } catch (const util::error&) {
            // A peer that breaks the protocol, or sends no header in time,
            // ends only its own session.
        }
    }
}

}  // namespace sca::core
