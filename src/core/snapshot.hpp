// Full-state snapshots and deterministic resume (checkpoint/restore).
//
// A snapshot captures everything a settled simulation needs to continue
// bit-identically: the kernel clock and counters, every pending timed
// notification (in queue order, so same-instant events refire in the
// original registration order), process wait states, DE signal values, TDF
// ring-buffer tokens and read/write positions, compiled-schedule signatures,
// and the solvers' integration history including the frozen LU pivot order.
//
// What a snapshot does NOT capture is behavioral *code*: restore rebuilds
// the model through the scenario factory (the same build lambda that made
// the original), then overlays the saved state onto the rebuilt objects.  A
// structural fingerprint — scenario name, parameters, the object hierarchy,
// the process list — is verified before any overlay; a mismatch is refused
// with a diagnostic instead of producing a silently wrong simulation.
//
// A snapshot is bytes or a file.  encode_snapshot()/decode_snapshot() move
// the payload, which starts with wire::k_format_version and encodes the
// scenario parameters with the wire params encoder.  testbench::snapshot()
// and scenario::resume() write and read a file holding exactly one SCA1 frame
// (the framing, checksum, and size-limit discipline of core/run_protocol) of
// type wire::msg_type::snapshot_state around that payload.
#ifndef SCA_CORE_SNAPSHOT_HPP
#define SCA_CORE_SNAPSHOT_HPP

#include <cstdint>
#include <memory>
#include <vector>

namespace sca::core {

class testbench;

/// Serialize a settled testbench into a snapshot payload (no framing).
/// Requires: the bench was built by a registered scenario, has run at least
/// once, and run() has returned (the instant is fully evaluated).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(testbench& tb);

/// Rebuild a testbench from a snapshot payload: look up the scenario, build
/// with the saved parameters, verify the structural fingerprint, overlay the
/// saved state.  Throws sca::util::error on version/fingerprint mismatch or
/// a malformed payload.
[[nodiscard]] std::unique_ptr<testbench> decode_snapshot(
    const std::vector<std::uint8_t>& payload);

}  // namespace sca::core

#endif  // SCA_CORE_SNAPSHOT_HPP
