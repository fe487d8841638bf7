// Checkpoint journal for run_set campaigns: an append-only file of completed
// run results, so a campaign interrupted by worker death (or by the parent
// process dying outright) resumes without recomputing finished runs.
//
// Format: the campaign header frame (wire::encode_header: format version and
// campaign fingerprint), then one SCA1 result frame per completed run, run
// metrics included, appended and flushed as results arrive.  A journal of
// another format version or another campaign is refused by name.  Every
// frame carries its own length prefix and FNV-1a checksum, so a torn tail —
// the parent died mid-append — is detected on open and cut off before the
// first new append; a later resume reads every record whole.
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
#include <vector>

#include "core/net.hpp"
#include "core/run_set.hpp"

namespace sca::core {

/// A campaign's journal, open for appending.
class checkpoint_journal {
public:
    /// Open the journal at `path` for the campaign whose header payload is
    /// `header`.  A missing file is created with the header frame.  An
    /// existing one must start with the same header — another format version
    /// or campaign throws and leaves the file as it was; its completed
    /// results are loaded (take_completed()) and a torn tail is truncated.
    checkpoint_journal(const std::string& path, const std::vector<std::uint8_t>& header);

    /// Results the journal held when it was opened, keyed by run index (the
    /// last record wins should an index appear twice).
    [[nodiscard]] std::map<std::size_t, run_result> take_completed() {
        return std::move(completed_);
    }

    /// Append one completed result and flush it to the OS, so the record
    /// survives the parent dying right after.
    void append(const run_result& r);

private:
    net::fd_owner fd_;
    std::map<std::size_t, run_result> completed_;
};

/// Run indices recorded in a journal, in file order — test/diagnostic hook
/// for the "every index exactly once" resume invariant.
[[nodiscard]] std::vector<std::uint64_t> checkpoint_indices(const std::string& path);

}  // namespace sca::core

#endif  // SCA_CORE_RUN_CHECKPOINT_HPP
