// Static scheduling for synchronous dataflow graphs: repetition-vector
// computation and compilation of the firing order into a flat, preallocated
// firing program.
//
// The repetition vector solves the balance equations
// rep[from] * out_rate == rep[to] * in_rate for every edge (minimal positive
// integer solution) and reports rate inconsistencies (graphs with no finite
// static schedule).  compile_schedule() then runs the PASS construction
// (Lee/Messerschmitt) once at elaboration and emits a run-length-encoded
// one-period firing program, the number of periods one pass of it may fuse,
// and exact ring-buffer capacities for such a pass, so execution needs no
// dynamic scheduling, map lookups, or allocations.
#ifndef SCA_TDF_SCHEDULE_HPP
#define SCA_TDF_SCHEDULE_HPP

#include <cstdint>
#include <vector>

namespace sca::tdf {

struct rate_edge {
    std::size_t from;        // producing module index
    std::size_t to;          // consuming module index
    unsigned out_rate;       // tokens produced per firing of `from`
    unsigned in_rate;        // tokens consumed per firing of `to`
};

/// Minimal repetition vector for `n` modules under the balance equations of
/// `edges`. Modules not touched by any edge get repetition 1.
/// Throws sca::util::error for inconsistent rates.
[[nodiscard]] std::vector<std::uint64_t> repetition_vector(std::size_t n,
                                                           const std::vector<rate_edge>& edges);

/// One end of a dataflow signal: which module it belongs to and how many
/// tokens move per firing (plus initial delay tokens shifting the stream).
struct sdf_endpoint {
    std::size_t module = 0;
    unsigned rate = 1;
    unsigned delay = 0;
};

/// Abstract description of one dataflow signal: a single writer and any
/// number of readers.
struct sdf_signal_desc {
    sdf_endpoint writer;
    std::vector<sdf_endpoint> readers;
};

/// One entry of the compiled firing program: fire `count` consecutive
/// activations of `module`, starting at firing index `first_firing` within
/// the cluster cycle.  Consecutive firings of the same module are merged so
/// the executor's outer loop touches each entry once.
struct firing_entry {
    std::size_t module = 0;
    std::uint64_t first_firing = 0;
    std::uint64_t count = 0;
};

/// Result of schedule compilation.  A pass of k <= batch_periods periods
/// fires every program entry `count * k` times, in program order, starting
/// at firing index `first_firing * k` (k = 1 is the one-period program).
/// `buffer_capacity` is, per signal, the ring capacity (in tokens) a pass of
/// batch_periods periods needs; it also fits every shorter pass.  Buffers
/// hold at least a full pass of tokens (writer rate x writer repetitions x
/// batch_periods), so a pass never wraps mid-period.
struct compiled_schedule {
    std::vector<firing_entry> program;
    std::vector<std::size_t> buffer_capacity;  // indexed like `signals`
    std::uint64_t total_firings = 0;           // per period
    std::uint64_t batch_periods = 1;
};

/// Run the PASS construction over the graph described by `repetitions` (from
/// repetition_vector) and `signals`, producing the one-period firing
/// program, then choose batch_periods: the largest k <= max_batch_periods
/// (and <= 2^16) for which an entry-by-entry replay of the program scaled by
/// k never reads a token before it exists (a module reading its own output
/// counts its own writes) and no ring exceeds 2^16 tokens.  A chain whose
/// program fires every writer before its readers, and a self-loop, fuse up
/// to the cap; a loop through several modules closed by D delay tokens
/// fuses at most D periods.  Throws sca::util::error on dataflow deadlock
/// (a cycle with insufficient delay tokens).
[[nodiscard]] compiled_schedule compile_schedule(const std::vector<std::uint64_t>& repetitions,
                                                 const std::vector<sdf_signal_desc>& signals,
                                                 std::uint64_t max_batch_periods = 1);

}  // namespace sca::tdf

#endif  // SCA_TDF_SCHEDULE_HPP
