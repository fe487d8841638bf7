// The three workloads.  Each runs its main loop for opt.seconds and records
// raw end-to-end figures; with opt.trace it enables the tracer where the
// benchmark owns the context (the tdf_dataflow bench) and adds the
// per-layer probes after the loop.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "harness.hpp"

namespace perfbench {

/// One testbench, one thread: the multichannel sigma-delta receiver run in
/// fixed slices of simulated time.
void tdf_dataflow(const options& opt, report& rep);

/// Campaigns of seeded buck-converter runs on the multiprocess backend with
/// 4 workers (closed loop: the next job goes out when a worker returns).
void sweep_mp(const options& opt, report& rep);

/// Two client threads, each opening unpaced RC-stream sessions back to back
/// on one sim_server (closed loop).
void server_stream(const options& opt, report& rep);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
