// Checkpoint journal for run_set campaigns: an append-only file of completed
// run results, so a campaign interrupted by worker death (or by the parent
// process dying outright) resumes without recomputing finished runs.
//
// Format: a header frame (wire::k_format_version, then the campaign
// fingerprint: scenario name, base seed, run count, keep-waveforms flag),
// then one SCA1 result frame per completed run, run metrics included,
// appended and flushed as results arrive.  A header of any other format
// version is refused by name.  Every frame carries its own length prefix and
// FNV-1a checksum, so a torn tail — the parent died mid-append — is detected
// and dropped on load instead of corrupting the resume.
//
// What gets journaled: results of runs that *completed*, successfully or
// with a run-level error (a deterministic model failure would just recur).
// Runs lost to infrastructure failure — a worker SIGKILLed mid-run, a dead
// TCP endpoint — are NOT journaled, so a resume recomputes exactly those.
#ifndef SCA_CORE_RUN_CHECKPOINT_HPP
#define SCA_CORE_RUN_CHECKPOINT_HPP

#include <cstdint>
#include <map>
#include <string>

#include "core/run_set.hpp"

namespace sca::core {

/// Campaign identity written to (and verified against) a journal header:
/// resuming a journal recorded for a different campaign is an error, not a
/// silent mix of incompatible rows.
struct checkpoint_fingerprint {
    std::string scenario_name;
    std::uint64_t base_seed = 0;
    std::uint64_t n_runs = 0;
    bool keep_waveforms = true;

    bool operator==(const checkpoint_fingerprint&) const = default;
};

/// Append-side handle.  Opens (creating or appending to) the journal file;
/// a fresh file gets the header frame immediately.
class checkpoint_writer {
public:
    checkpoint_writer(const std::string& path, const checkpoint_fingerprint& fp);
    ~checkpoint_writer();

    checkpoint_writer(const checkpoint_writer&) = delete;
    checkpoint_writer& operator=(const checkpoint_writer&) = delete;

    /// Append one completed result and flush it to the OS, so the record
    /// survives the parent dying right after.
    void append(const run_result& r);

    /// Append a full-state warm-start snapshot payload (core/snapshot
    /// format, unframed) under the campaign fingerprint.  load_checkpoint()
    /// skips the frame; load_checkpoint_snapshot() recovers it.
    void append_snapshot(const std::vector<std::uint8_t>& snapshot_payload);

private:
    int fd_ = -1;
};

/// Completed results recovered from a journal, keyed by run index.  A
/// missing file yields an empty map; a format-version or fingerprint
/// mismatch throws.  The
/// last record wins when an index somehow appears twice (it cannot through
/// this API, but the loader is tolerant).
[[nodiscard]] std::map<std::size_t, run_result> load_checkpoint(
    const std::string& path, const checkpoint_fingerprint& expect);

/// The last warm-start snapshot payload recorded in a journal, or an empty
/// vector when the journal is absent or carries none.  A fingerprint
/// mismatch throws.  Feed the payload to core::decode_snapshot() to stand a
/// testbench at the recorded state.
[[nodiscard]] std::vector<std::uint8_t> load_checkpoint_snapshot(
    const std::string& path, const checkpoint_fingerprint& expect);

/// Run indices recorded in a journal, in file order — test/diagnostic hook
/// for the "every index exactly once" resume invariant.
[[nodiscard]] std::vector<std::uint64_t> checkpoint_indices(const std::string& path);

}  // namespace sca::core

#endif  // SCA_CORE_RUN_CHECKPOINT_HPP
