#include "core/run_checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/run_protocol.hpp"
#include "util/report.hpp"

namespace sca::core {

namespace {

std::vector<std::uint8_t> read_whole_file(const std::string& path, bool& exists) {
    const net::fd_owner fd(::open(path.c_str(), O_RDONLY));
    if (fd.get() < 0) {
        util::require(errno == ENOENT, "run_checkpoint",
                      "cannot open journal '" + path + "': " + std::strerror(errno));
        exists = false;
        return {};
    }
    exists = true;
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[65536];
    for (;;) {
        const ssize_t r = ::read(fd.get(), chunk, sizeof chunk);
        if (r < 0) {
            if (errno == EINTR) continue;
            util::report_fatal("run_checkpoint",
                               "journal read failed: " + std::string(std::strerror(errno)));
        }
        if (r == 0) break;
        bytes.insert(bytes.end(), chunk, chunk + r);
    }
    return bytes;
}

/// Walk a journal byte image: check its header frame with `check_header`,
/// then hand every whole result frame to `on_result`, stopping cleanly at a
/// torn tail (partial final append).  Returns the length of the whole-frame
/// prefix, where a torn tail starts.
template <typename CheckHeader, typename OnResult>
std::size_t walk_journal(const std::vector<std::uint8_t>& bytes, const std::string& path,
                         CheckHeader&& check_header, OnResult&& on_result) {
    std::size_t offset = 0;
    wire::frame f;
    util::require(wire::unpack_frame(bytes.data(), bytes.size(), offset, f),
                  "run_checkpoint", "journal '" + path + "' is empty");
    util::require(f.type == wire::msg_type::header, "run_checkpoint",
                  "journal '" + path + "' does not start with a header frame");
    check_header(f.payload);
    for (;;) {
        const std::size_t record_start = offset;
        try {
            if (!wire::unpack_frame(bytes.data(), bytes.size(), offset, f)) {
                return record_start;
            }
        } catch (const util::error&) {
            // Torn tail: the writer died mid-append.  Everything before this
            // record was flushed whole (frames are appended atomically from
            // the journal's point of view), so drop the tail and resume.
            util::report_warning("run_checkpoint",
                                 "journal '" + path + "' has a torn record at byte " +
                                     std::to_string(record_start) + "; ignoring the tail");
            return record_start;
        }
        util::require(f.type == wire::msg_type::result, "run_checkpoint",
                      "journal '" + path + "' holds a frame that is not a result");
        on_result(wire::decode_result(f.payload.data(), f.payload.size()));
    }
}

}  // namespace

checkpoint_journal::checkpoint_journal(const std::string& path,
                                       const std::vector<std::uint8_t>& header) {
    bool exists = false;
    const std::vector<std::uint8_t> bytes = read_whole_file(path, exists);
    std::size_t whole = 0;
    if (exists) {
        whole = walk_journal(
            bytes, path,
            [&](const std::vector<std::uint8_t>& found) {
                wire::require_header(found, header, "journal '" + path + "'");
            },
            [&](run_result r) { completed_[r.index] = std::move(r); });
    }
    // Append mode: a resume keeps extending the same journal, so across the
    // whole campaign every completed index appears exactly once.
    fd_ = net::fd_owner(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644));
    util::require(fd_.get() >= 0, "run_checkpoint",
                  "cannot open journal '" + path + "' for append: " +
                      std::string(std::strerror(errno)));
    if (!exists) {
        util::require(wire::write_frame(fd_.get(), wire::msg_type::header, header),
                      "run_checkpoint", "journal header write failed");
    } else if (whole < bytes.size() && ::ftruncate(fd_.get(), static_cast<off_t>(whole)) != 0) {
        // A torn tail must go, or every later load would stop at it and lose
        // the records appended behind it.
        util::report_fatal("run_checkpoint", "cannot truncate the torn tail of journal '" +
                                                 path + "': " + std::strerror(errno));
    }
}

void checkpoint_journal::append(const run_result& r) {
    util::require(
        wire::write_frame(fd_.get(), wire::msg_type::result, wire::encode_result(r)),
        "run_checkpoint", "journal append failed");
    ::fsync(fd_.get());
}

std::vector<std::uint64_t> checkpoint_indices(const std::string& path) {
    bool exists = false;
    const std::vector<std::uint8_t> bytes = read_whole_file(path, exists);
    util::require(exists, "run_checkpoint", "journal '" + path + "' does not exist");
    std::vector<std::uint64_t> indices;
    walk_journal(
        bytes, path, [](const std::vector<std::uint8_t>&) {},
        [&](const run_result& r) { indices.push_back(r.index); });
    return indices;
}

}  // namespace sca::core
