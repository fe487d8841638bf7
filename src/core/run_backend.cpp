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
#include <memory>
#include <mutex>
#include <thread>

#include "core/net.hpp"
#include "core/run_protocol.hpp"
#include "util/report.hpp"

namespace sca::core {

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

/// The shared parent-side dispatcher: hand each idle worker the next pending
/// index, poll the worker fds, slot results as they stream back, and survive
/// worker death.  `respawn` (nullable) provides a replacement worker after a
/// death while jobs remain — the multiprocess backend respawns, the remote
/// backend retires the endpoint instead.
void dispatch(const run_set& rs, const std::vector<std::size_t>& pending,
              std::vector<run_result>& results, std::vector<worker_conn> workers,
              const result_sink& deliver, const respawn_fn& respawn) {
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
                if (!assign(workers.back())) {
                    retire(workers.size() - 1, "worker died at spawn");
                }
            }
        };

    for (std::size_t i = 0; i < workers.size();) {
        if (assign(workers[i])) {
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

    // Campaign complete: shut the surviving workers down.
    for (worker_conn& w : workers) {
        (void)wire::write_frame(w.fd, wire::msg_type::shutdown, {});
        ::close(w.fd);
        if (w.pid >= 0) ::waitpid(w.pid, nullptr, 0);
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
worker_conn fork_worker(const run_set& rs, const std::vector<worker_conn>& existing) {
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
            run_worker_loop(rs, sv[1]);
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    ::close(sv[1]);
    return worker_conn{sv[0], pid, -1, -1};
}

}  // namespace

void execute_multiprocess(const run_set& rs, const std::vector<std::size_t>& pending,
                          std::vector<run_result>& results, unsigned workers,
                          const result_sink& deliver) {
    workers = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(workers, pending.size())));
    std::vector<worker_conn> conns;
    conns.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        conns.push_back(fork_worker(rs, conns));
        conns.back().id = static_cast<int>(w);
    }
    // Respawned workers get fresh ids so per-worker telemetry never merges
    // a replacement's runs into its predecessor's.
    auto next_id = std::make_shared<int>(static_cast<int>(workers));
    dispatch(rs, pending, results, std::move(conns), deliver,
             [&rs, next_id](const std::vector<worker_conn>& live) {
                 worker_conn w = fork_worker(rs, live);
                 w.id = (*next_id)++;
                 return w;
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
                        const result_sink& deliver) {
    util::require(!endpoints.empty(), "run_backend",
                  "remote_tcp backend needs at least one endpoint "
                  "(run_set::set_endpoints)");
    std::vector<worker_conn> conns;
    conns.reserve(endpoints.size());
    for (const std::string& ep : endpoints) {
        conns.push_back(worker_conn{connect_endpoint(ep), -1, -1,
                                    static_cast<int>(conns.size())});
    }
    // No respawn: a dead endpoint is retired; its in-flight run is recorded
    // as lost and recomputable via the checkpoint journal.
    dispatch(rs, pending, results, std::move(conns), deliver, nullptr);
}

}  // namespace detail

// -------------------------------------------------------------- worker side --

void run_worker_loop(const run_set& rs, int fd) {
    for (;;) {
        wire::frame f;
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

void serve_tcp_workers(const run_set& rs, int listen_fd, unsigned max_sessions) {
    for (unsigned served = 0; max_sessions == 0 || served < max_sessions; ++served) {
        const int fd = net::accept(listen_fd, /*tcp=*/true);
        run_worker_loop(rs, fd);
        ::close(fd);
    }
}

}  // namespace sca::core
