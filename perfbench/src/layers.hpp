// Per-layer measurements, all taken from outside the library: each helper
// calls one layer's public functions on a workload's own model and inputs
// and times the calls (thread CPU time for in-process replays, the steady
// clock for wire calls and server sessions).  Spans come only from the
// tracer the program already has (ctx.tracer()), enabled on contexts the
// benchmark owns.
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "harness.hpp"
#include "kernel/time.hpp"
#include "util/telemetry.hpp"
#include "util/trace_export.hpp"

namespace perfbench {

/// One unit of a workload's work, replayable in-process.
struct unit_of_work {
    const sca::core::scenario* sc = nullptr;
    sca::core::params point;
    /// How far one unit runs: a slice for tdf_dataflow; zero = the
    /// scenario's stop time (one sweep run / one session).
    sca::de::time run_for = sca::de::time::zero();
    std::string probe;  ///< the probe a server session subscribes to
    bool keep_waveforms = true;
};

/// core.{build,elaborate,run}_s, kernel.*, tdf.* and solver.* from untraced
/// in-process replays of `unit`; traced.core.* and the trace.* self times
/// from traced replays of it, alternating with the untraced ones.
void probe_core(const unit_of_work& unit, report& rep);

/// wire.result.* from the unit's run_result (run_set::run_one), and
/// wire.samples.* / wire.frame.* from `values` cut into 512-sample batches.
void probe_wire(const unit_of_work& unit, const std::vector<double>& times,
                const std::vector<double>& values, report& rep);

/// One server session, opened with the race-free sequence
/// (open_async, subscribe, await_opened, resume) and read to its close.
struct session_record {
    double connect_ms = 0.0;
    double hello_ms = 0.0;
    double open_ms = 0.0;
    double ttfs_ms = 0.0;
    double drain_s = 0.0;
    double total_ms = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t batches = 0;
    std::uint64_t dropped = 0;
    std::uint64_t gaps = 0;
    std::uint64_t slices = 0;
    std::uint64_t max_queue_depth = 0;
    bool finished = false;
    std::string error;
    std::vector<double> times;   ///< kept only when asked for
    std::vector<double> values;
};

session_record run_session(std::uint16_t port, const std::string& scenario,
                           const sca::core::params& point, const std::string& probe,
                           bool keep_wave);

/// Whether a session streamed `expected` samples cleanly to its end.
[[nodiscard]] bool session_ok(const session_record& s, std::uint64_t expected,
                              std::string& why);

/// server.* samples from finished sessions.
void record_sessions(const std::vector<session_record>& sessions, report& rep);

/// Serve `count` sessions of the unit's model on a private server and
/// record their server.* costs (the server layer, measured on this model).
void probe_server(const unit_of_work& unit, std::size_t count, report& rep);

/// Count of the counter `name` in a metrics snapshot (0 when absent).
[[nodiscard]] std::uint64_t metric_count(const sca::util::metrics_snapshot& snap,
                                         const std::string& name);

/// Bit-for-bit equality of two sample vectors.
[[nodiscard]] bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// Self time (span duration minus the time its nested child spans cover),
/// summed per span name, in ms.
[[nodiscard]] std::map<std::string, double> span_self_ms(
    const std::vector<sca::util::trace_event>& events);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
