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
// Failure model: a run that throws records `error` in its slot (the worker
// reports it like any result).  A worker that *dies* (SIGKILL, crash) takes
// only its in-flight run down: the parent marks that slot with an
// infrastructure error, respawns a replacement (multiprocess) or retires the
// endpoint (remote TCP), and the campaign continues.  With a checkpoint
// journal configured (run_set::set_checkpoint) completed runs are persisted
// as they arrive and a re-run recomputes only the missing ones.
#ifndef SCA_CORE_RUN_BACKEND_HPP
#define SCA_CORE_RUN_BACKEND_HPP

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
/// dispatcher, automatic respawn after worker death.
void execute_multiprocess(const run_set& rs, const std::vector<std::size_t>& pending,
                          std::vector<run_result>& results, unsigned workers,
                          const result_sink& deliver);

/// Remote-TCP execution: one connection per "host:port" endpoint (numeric
/// IPv4), same dispatcher, no respawn — a dead endpoint is retired and its
/// in-flight run recorded as lost.
void execute_remote_tcp(const run_set& rs, const std::vector<std::size_t>& pending,
                        std::vector<run_result>& results,
                        const std::vector<std::string>& endpoints,
                        const result_sink& deliver);

}  // namespace detail

// -------------------------------------------------------------- worker side --

/// Blocking worker loop over a connected stream fd — the worker half of the
/// wire protocol, shared by forked subprocess workers and TCP worker
/// servers: read a job frame, execute run_one(index), write the result
/// frame, repeat until shutdown or EOF.  Returns normally on clean shutdown
/// and when the parent disappears; protocol violations throw.
void run_worker_loop(const run_set& rs, int fd);

/// Accept and serve worker sessions on `listen_fd` (blocking; see
/// net::listen_tcp): each accepted connection runs run_worker_loop to
/// completion.  Serves `max_sessions`
/// sessions then returns (0 = serve forever).  This is the process body of a
/// remote worker host; tests fork one on a loopback socket.
void serve_tcp_workers(const run_set& rs, int listen_fd, unsigned max_sessions);

}  // namespace sca::core

#endif  // SCA_CORE_RUN_BACKEND_HPP
