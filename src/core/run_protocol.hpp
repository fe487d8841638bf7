// SCA1: the one binary format this build speaks.  Length-prefixed frames
// carry run_set jobs and results between the parent and its fork-based or
// remote-TCP workers, the streaming-server sessions (src/server/), the
// checkpoint journal (core/run_checkpoint) and snapshot files
// (core/snapshot).  This header owns the whole layout; the field encoding
// itself is util::byte_writer / util::byte_reader.
//
// Framing (all integers little-endian regardless of host byte order):
//
//   u32 magic 'SCA1' | u32 payload_len | u8 type | payload | u32 fnv1a(payload)
//
// Doubles travel as their raw IEEE-754 bit pattern (bit_cast to u64), so a
// result decoded on the parent side is byte-exact — NaN payloads, signed
// zeros, infinities and denormals all survive the pipe, which is what keeps
// the multiprocess result table bit-identical to the in-thread one.
//
// Robustness contract (tests/test_run_protocol.cpp): truncated frames,
// payloads above k_max_payload, magic/type/checksum mismatches and short or
// oversized payloads all throw sca::util::error instead of yielding garbage.
//
// Versioning: one number, k_format_version, covers every SCA1 payload.  The
// hello frame, the snapshot payload and the journal header carry it, and a
// reader refuses any other value by name instead of guessing at a layout.
#ifndef SCA_CORE_RUN_PROTOCOL_HPP
#define SCA_CORE_RUN_PROTOCOL_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/run_set.hpp"
#include "util/bytes.hpp"

namespace sca::core::wire {

/// Frame header magic ('SCA1' little-endian).
inline constexpr std::uint32_t k_magic = 0x31414353U;

/// Upper bound on a frame payload (rejects corrupt/hostile length prefixes
/// before any allocation happens).
inline constexpr std::uint32_t k_max_payload = 256U * 1024U * 1024U;

/// Version of the SCA1 payload layouts.  The client's hello carries it (the
/// server echoes it, or answers any other value with an error frame and
/// hangs up), and so do the snapshot payload and the checkpoint journal
/// header.
inline constexpr std::uint8_t k_format_version = 3;

/// Throw unless `found` equals k_format_version; `what` names the refused
/// hello, file or journal in the diagnostic.
void require_format_version(std::uint32_t found, const std::string& what);

enum class msg_type : std::uint8_t {
    job = 1,       ///< parent -> worker: u64 run index
    result = 2,    ///< worker -> parent: encoded run_result
    shutdown = 3,  ///< parent -> worker: finish and exit (empty payload)
    header = 4,    ///< checkpoint journal only: campaign fingerprint

    // --- session protocol ---------------------------------------------------
    hello = 5,      ///< both ways: u8 k_format_version
    catalog = 6,    ///< request (empty) / reply (scenario names + defaults)
    open = 7,       ///< client -> server: scenario name + params + slice
    opened = 8,     ///< server -> client: session id, probes, timing
    param = 9,      ///< client -> server: live poke {name, value}
    subscribe = 10, ///< client -> server: probe name + on/off
    samples = 11,   ///< server -> client: framed waveform batch
    pace = 12,      ///< both ways: wall-clock pacing factor (+ drift in reply)
    run_state = 13, ///< client -> server: u8 0 = pause, 1 = resume
    close = 14,     ///< request (empty) / reply (final session statistics)
    error = 15,     ///< server -> client: diagnostic message

    // --- full-state snapshots (core/snapshot) ------------------------------
    snapshot_state = 16,  ///< snapshot file / journal: full simulation state

    stats = 17,  ///< session: request (empty) / reply or periodic push
};

/// Largest assigned frame type (frame validation bound).
inline constexpr std::uint8_t k_max_msg_type = 17;

/// One decoded frame.
struct frame {
    msg_type type = msg_type::shutdown;
    std::vector<std::uint8_t> payload;
};

// -------------------------------------------------------- encode / decode --

[[nodiscard]] std::vector<std::uint8_t> encode_job(std::uint64_t index);
[[nodiscard]] std::uint64_t decode_job(const std::uint8_t* data, std::size_t n);

/// A whole run_result except `worker` (which the receiving dispatcher
/// stamps), run_metrics included.
[[nodiscard]] std::vector<std::uint8_t> encode_result(const run_result& r);
[[nodiscard]] run_result decode_result(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_params(const params& p);
[[nodiscard]] params decode_params(const std::uint8_t* data, std::size_t n);

/// The params field encoding, for payloads that embed one (snapshots).
void put_params(util::byte_writer& w, const params& p);
[[nodiscard]] params get_params(util::byte_reader& r);

// ------------------------------------------------- session protocol types --

/// One service-catalog row: a registered scenario and its default parameters.
struct catalog_entry {
    std::string name;
    params defaults;
};

/// Client request to instantiate a scenario as a live session.
struct open_request {
    std::string scenario;
    params overrides;
    std::uint64_t slice_us = 0;  ///< kernel slice bound; 0 = server default
};

/// Server reply to a successful open: the session identity and everything a
/// client needs to subscribe (probe names) and interpret the stream.
struct session_info {
    std::uint64_t session_id = 0;
    double stop_time_s = 0.0;
    double sample_period_s = 0.0;
    std::vector<std::string> probes;
};

/// Live parameter poke, applied between kernel slices through the scenario's
/// testbench::on_param hooks.
struct param_poke {
    std::string name;
    double value = 0.0;
};

struct subscribe_request {
    std::string probe;
    bool on = true;
};

/// One streamed waveform batch.  `first_index` is the absolute sample index
/// of times[0]/values[0] within the session's probe record, so a client can
/// detect (and size) gaps left by backpressure drops; `dropped` is the
/// cumulative count of samples dropped on this subscription so far.
struct sample_batch {
    std::string probe;
    std::uint64_t first_index = 0;
    std::uint64_t dropped = 0;
    std::vector<double> times;
    std::vector<double> values;
};

/// Pacing control/status.  The client sends the factor it wants (drift
/// fields ignored); the server's reply echoes the factor and reports the
/// drift measured so far.
struct pace_info {
    double real_time_factor = 0.0;  ///< <= 0 disables pacing
    double drift_s = 0.0;
    double max_drift_s = 0.0;
};

/// Why a session ended (close reply).
enum class close_reason : std::uint8_t {
    client_request = 0,  ///< client sent close
    finished = 1,        ///< simulation reached its stop time
    failed = 2,          ///< session error (message went out as an error frame)
};

/// Final session statistics, sent as the close reply.  This is the
/// authoritative end-of-session telemetry: streamed/dropped totals, the
/// deepest the stream queue ever got, pacing drift extremes, and the number
/// of kernel slices the session executed.
struct close_info {
    close_reason reason = close_reason::client_request;
    double sim_time_s = 0.0;
    std::uint64_t samples_streamed = 0;
    std::uint64_t samples_dropped = 0;
    double pace_drift_s = 0.0;
    double pace_max_drift_s = 0.0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t slices = 0;
    std::map<std::string, double> measurements;
};

/// In-band session telemetry: pushed every options.stats_every_slices kernel
/// slices while streaming, and on demand as the reply to an (empty) stats
/// request.  Counts are cumulative for the session.
struct stats_info {
    double sim_time_s = 0.0;
    std::uint64_t slices = 0;
    std::uint64_t samples_streamed = 0;
    std::uint64_t samples_dropped = 0;
    std::uint64_t queue_depth = 0;      ///< batches queued right now
    std::uint64_t max_queue_depth = 0;  ///< deepest the queue has been
    double pace_drift_s = 0.0;
    double pace_max_drift_s = 0.0;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(std::uint8_t version);
[[nodiscard]] std::uint8_t decode_hello(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_catalog(
    const std::vector<catalog_entry>& entries);
[[nodiscard]] std::vector<catalog_entry> decode_catalog(const std::uint8_t* data,
                                                        std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_open(const open_request& req);
[[nodiscard]] open_request decode_open(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_opened(const session_info& info);
[[nodiscard]] session_info decode_opened(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_poke(const param_poke& poke);
[[nodiscard]] param_poke decode_poke(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_subscribe(const subscribe_request& req);
[[nodiscard]] subscribe_request decode_subscribe(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_samples(const sample_batch& batch);
[[nodiscard]] sample_batch decode_samples(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_pace(const pace_info& info);
[[nodiscard]] pace_info decode_pace(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_run_state(bool running);
[[nodiscard]] bool decode_run_state(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_close(const close_info& info);
[[nodiscard]] close_info decode_close(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const std::string& message);
[[nodiscard]] std::string decode_error(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_stats(const stats_info& info);
[[nodiscard]] stats_info decode_stats(const std::uint8_t* data, std::size_t n);

/// Serialize a full frame (header + payload + checksum) into a byte buffer —
/// what write_frame() puts on the wire and the journal appends to disk.
[[nodiscard]] std::vector<std::uint8_t> pack_frame(msg_type type,
                                                   const std::vector<std::uint8_t>& payload);

/// Parse one frame from `data`; advances `offset` past it.  Returns false on
/// a clean end (no bytes left), throws on truncation/corruption.
bool unpack_frame(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                  frame& out);

/// Size in bytes of the complete frame starting at data[0], parsing only the
/// header: 0 when fewer than the 9 header bytes are available yet ("read
/// more"), the full frame length otherwise.  Validates magic, length and type
/// so a server can reject a garbage stream before buffering its payload.
/// This is what lets a non-blocking reader distinguish "frame still in
/// flight" (wait) from "frame torn/corrupt" (throw) — unpack_frame alone
/// treats both as truncation.
[[nodiscard]] std::size_t frame_size_hint(const std::uint8_t* data, std::size_t size);

// ------------------------------------------------------------- fd framing --

/// Write a frame to a socket/pipe fd (retries short writes, suppresses
/// SIGPIPE).  Returns false when the peer is gone (EPIPE/ECONNRESET), throws
/// on other I/O errors.
bool write_frame(int fd, msg_type type, const std::vector<std::uint8_t>& payload);

/// Read one frame from a blocking fd.  Returns false on clean EOF before any
/// header byte; throws on mid-frame EOF, bad magic, oversized payload,
/// unknown type, or checksum mismatch.
bool read_frame(int fd, frame& out);

}  // namespace sca::core::wire

#endif  // SCA_CORE_RUN_PROTOCOL_HPP
