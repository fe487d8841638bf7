// Execution backends for run_set::run_all(): the same campaign (scenario x
// parameter points, atomic-index dispatch, results slotted by run index) can
// execute on an in-process thread pool, on fork()ed worker subprocesses
// speaking the wire protocol over socketpairs, or on remote TCP workers
// speaking the identical protocol.  Results stream back to the parent as
// they complete; a parent-side dispatcher owns job assignment so dispatch
// order never depends on worker timing.
//
// Determinism contract (unchanged from PR 3, now across process boundaries):
// every run derives its parameters and seed from (base_seed, run index)
// alone, doubles travel bit-exactly (see run_protocol.hpp), and results land
// in their run-index slot — so any backend at any worker count produces a
// result_table byte-identical to sequential in-thread execution.
//
// Campaign handshake: the dispatcher opens every worker connection, forked or
// remote, with the campaign header (wire::encode_header), and the worker
// sends its own.  A worker of another campaign or format version is refused
// — run_all() throws naming it before any job is sent — instead of answering
// each job with a row of its own campaign.
//
// Failure model: a run that throws records `error` in its slot (the worker
// reports it like any result).  A worker that *dies* (SIGKILL, crash) takes
// only its in-flight run down: the parent marks that slot with an
// infrastructure error, respawns a replacement (multiprocess) or retires the
// endpoint (remote TCP), and the campaign continues.  With a checkpoint
// journal configured (run_set::set_checkpoint) completed runs are persisted
// as they arrive and a re-run recomputes only the missing ones.
#ifndef SCA_CORE_RUN_BACKEND_HPP
#define SCA_CORE_RUN_BACKEND_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/run_set.hpp"

namespace sca::core {

namespace detail {

/// Delivery hook invoked once per filled result slot, in arrival order, on
/// the dispatching thread (serialized under a mutex for the thread pool).
/// `completed` distinguishes runs that actually finished (worker reported a
/// result — ok or run-level error) from runs lost to infrastructure failure
/// (worker death, dead endpoint); only completed runs belong in a journal.
using result_sink = std::function<void(const run_result&, bool completed)>;

/// Thread-pool execution of `pending` run indices (the PR-3 engine, now
/// restricted to an explicit index list so checkpoint resume can skip
/// finished runs).
void execute_in_thread(const run_set& rs, const std::vector<std::size_t>& pending,
                       std::vector<run_result>& results, unsigned workers,
                       const result_sink& deliver);

/// Fork/socketpair execution: `workers` subprocesses, parent-side poll()
/// dispatcher, automatic respawn after worker death.  `header` is the
/// campaign header (wire::encode_header of rs.fingerprint()).
void execute_multiprocess(const run_set& rs, const std::vector<std::size_t>& pending,
                          std::vector<run_result>& results, unsigned workers,
                          const std::vector<std::uint8_t>& header,
                          const result_sink& deliver);

/// Remote-TCP execution: one connection per "host:port" endpoint (numeric
/// IPv4), same dispatcher, no respawn — a dead endpoint is retired and its
/// in-flight run recorded as lost.
void execute_remote_tcp(const run_set& rs, const std::vector<std::size_t>& pending,
                        std::vector<run_result>& results,
                        const std::vector<std::string>& endpoints,
                        const std::vector<std::uint8_t>& header,
                        const result_sink& deliver);

}  // namespace detail

// -------------------------------------------------------------- worker side --

/// Accept and serve worker sessions on `listen_fd` (blocking; see
/// net::listen_tcp): each accepted connection runs the worker loop — swap
/// campaign headers, then execute run_one() per job frame until shutdown or
/// EOF — and a parent of another campaign is hung up on.  A connection that
/// breaks the protocol (a bad frame, an unexpected type) or stays silent
/// for `worker_header_timeout_ms` while the host waits for its campaign
/// header is closed and counts as one served session; the host keeps
/// accepting.
/// Serves `max_sessions` sessions then returns (0 = serve forever).  This is
/// the process body of a remote worker host; tests fork one on a loopback
/// socket.
void serve_tcp_workers(const run_set& rs, int listen_fd, unsigned max_sessions);

/// How long a remote worker host waits on each read of a connected peer's
/// campaign header: the host serves one session at a time, so a peer that
/// sends nothing must not hold it.
inline constexpr int worker_header_timeout_ms = 2000;

}  // namespace sca::core

#endif  // SCA_CORE_RUN_BACKEND_HPP
