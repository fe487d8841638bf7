#include "core/run_checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "core/run_protocol.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::core {

namespace {

std::vector<std::uint8_t> encode_header(const checkpoint_fingerprint& fp) {
    util::byte_writer w;
    w.u32(wire::k_format_version);
    w.str(fp.scenario_name);
    w.u64(fp.base_seed);
    w.u64(fp.n_runs);
    w.boolean(fp.keep_waveforms);
    return w.take();
}

checkpoint_fingerprint decode_header(const std::vector<std::uint8_t>& payload,
                                     const std::string& path) {
    util::byte_reader r(payload);
    wire::require_format_version(r.u32(), "journal '" + path + "'");
    checkpoint_fingerprint fp;
    fp.scenario_name = r.str();
    fp.base_seed = r.u64();
    fp.n_runs = r.u64();
    fp.keep_waveforms = r.boolean();
    r.expect_end();
    return fp;
}

std::vector<std::uint8_t> read_whole_file(const std::string& path, bool& exists) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        util::require(errno == ENOENT, "run_checkpoint",
                      "cannot open journal '" + path + "': " + std::strerror(errno));
        exists = false;
        return {};
    }
    exists = true;
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[65536];
    for (;;) {
        const ssize_t r = ::read(fd, chunk, sizeof chunk);
        if (r < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            util::report_fatal("run_checkpoint",
                               "journal read failed: " + std::string(std::strerror(errno)));
        }
        if (r == 0) break;
        bytes.insert(bytes.end(), chunk, chunk + r);
    }
    ::close(fd);
    return bytes;
}

/// Walk a journal byte image: header fingerprint + every following frame
/// (results, warm-start snapshots), stopping cleanly at a torn tail
/// (partial final append).  Each callback skips the frame types it does not
/// want.
template <typename OnFrame>
checkpoint_fingerprint walk_journal(const std::vector<std::uint8_t>& bytes,
                                    const std::string& path, OnFrame&& on_frame) {
    std::size_t offset = 0;
    wire::frame f;
    util::require(wire::unpack_frame(bytes.data(), bytes.size(), offset, f),
                  "run_checkpoint", "journal '" + path + "' is empty");
    util::require(f.type == wire::msg_type::header, "run_checkpoint",
                  "journal '" + path + "' does not start with a header frame");
    checkpoint_fingerprint fp = decode_header(f.payload, path);
    for (;;) {
        const std::size_t record_start = offset;
        try {
            if (!wire::unpack_frame(bytes.data(), bytes.size(), offset, f)) break;
        } catch (const util::error&) {
            // Torn tail: the writer died mid-append.  Everything before this
            // record was flushed whole (frames are appended atomically from
            // the journal's point of view), so drop the tail and resume.
            util::report_warning("run_checkpoint",
                                 "journal '" + path + "' has a torn record at byte " +
                                     std::to_string(record_start) + "; ignoring the tail");
            break;
        }
        on_frame(f);
    }
    return fp;
}

}  // namespace

checkpoint_writer::checkpoint_writer(const std::string& path,
                                     const checkpoint_fingerprint& fp) {
    // Append mode: a resume keeps extending the same journal, so across the
    // whole campaign every completed index appears exactly once.
    const bool fresh = ::access(path.c_str(), F_OK) != 0;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    util::require(fd_ >= 0, "run_checkpoint",
                  "cannot open journal '" + path + "' for append: " +
                      std::string(std::strerror(errno)));
    if (fresh) {
        util::require(wire::write_frame(fd_, wire::msg_type::header, encode_header(fp)),
                      "run_checkpoint", "journal header write failed");
    }
}

checkpoint_writer::~checkpoint_writer() {
    if (fd_ >= 0) ::close(fd_);
}

void checkpoint_writer::append(const run_result& r) {
    util::require(wire::write_frame(fd_, wire::msg_type::result, wire::encode_result(r)),
                  "run_checkpoint", "journal append failed");
    ::fsync(fd_);
}

void checkpoint_writer::append_snapshot(const std::vector<std::uint8_t>& snapshot_payload) {
    util::require(
        wire::write_frame(fd_, wire::msg_type::snapshot_state, snapshot_payload),
        "run_checkpoint", "journal snapshot append failed");
    ::fsync(fd_);
}

std::map<std::size_t, run_result> load_checkpoint(const std::string& path,
                                                  const checkpoint_fingerprint& expect) {
    bool exists = false;
    const std::vector<std::uint8_t> bytes = read_whole_file(path, exists);
    if (!exists) return {};
    std::map<std::size_t, run_result> done;
    const checkpoint_fingerprint fp = walk_journal(bytes, path, [&](const wire::frame& f) {
        if (f.type != wire::msg_type::result) return;
        run_result r = wire::decode_result(f.payload.data(), f.payload.size());
        done[r.index] = std::move(r);
    });
    util::require(fp == expect, "run_checkpoint",
                  "journal '" + path + "' was recorded for a different campaign "
                  "(scenario '" + fp.scenario_name + "', seed " +
                      std::to_string(fp.base_seed) + ", " + std::to_string(fp.n_runs) +
                      " runs); refusing to resume from it");
    return done;
}

std::vector<std::uint8_t> load_checkpoint_snapshot(const std::string& path,
                                                   const checkpoint_fingerprint& expect) {
    bool exists = false;
    const std::vector<std::uint8_t> bytes = read_whole_file(path, exists);
    if (!exists) return {};
    std::vector<std::uint8_t> snapshot;
    const checkpoint_fingerprint fp = walk_journal(bytes, path, [&](const wire::frame& f) {
        if (f.type == wire::msg_type::snapshot_state) snapshot = f.payload;
    });
    util::require(fp == expect, "run_checkpoint",
                  "journal '" + path + "' was recorded for a different campaign "
                  "(scenario '" + fp.scenario_name + "', seed " +
                      std::to_string(fp.base_seed) + ", " + std::to_string(fp.n_runs) +
                      " runs); refusing to use its warm-start snapshot");
    return snapshot;
}

std::vector<std::uint64_t> checkpoint_indices(const std::string& path) {
    bool exists = false;
    const std::vector<std::uint8_t> bytes = read_whole_file(path, exists);
    util::require(exists, "run_checkpoint", "journal '" + path + "' does not exist");
    std::vector<std::uint64_t> indices;
    walk_journal(bytes, path, [&](const wire::frame& f) {
        if (f.type != wire::msg_type::result) return;
        indices.push_back(wire::decode_result(f.payload.data(), f.payload.size()).index);
    });
    return indices;
}

}  // namespace sca::core
