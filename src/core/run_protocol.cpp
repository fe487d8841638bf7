#include "core/run_protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <variant>

#include "util/report.hpp"

namespace sca::core::wire {

void require_format_version(std::uint32_t found, const std::string& what) {
    if (found != k_format_version) {
        util::report_fatal("run_protocol",
                           "unsupported " + what + " version " + std::to_string(found) +
                               " (this build reads and writes format version " +
                               std::to_string(k_format_version) + " only)");
    }
}

void put_params(util::byte_writer& w, const params& p) {
    const auto& entries = p.entries();
    w.u64(p.run_index());
    w.u64(p.seed());
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [name, v] : entries) {
        w.str(name);
        if (std::holds_alternative<double>(v)) {
            w.u8(0);
            w.f64(std::get<double>(v));
        } else {
            w.u8(1);
            w.str(std::get<std::string>(v));
        }
    }
}

params get_params(util::byte_reader& r) {
    params p;
    const std::uint64_t run_index = r.u64();
    const std::uint64_t seed = r.u64();
    p.set_run_identity(run_index, seed);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        const std::uint8_t kind = r.u8();
        util::require(kind <= 1, "run_protocol", "unknown params value kind");
        if (kind == 0) {
            p.set(name, r.f64());
        } else {
            p.set(name, r.str());
        }
    }
    return p;
}

// ----------------------------------------------------------- job messages --

std::vector<std::uint8_t> encode_job(std::uint64_t index) {
    util::byte_writer w;
    w.u64(index);
    return w.take();
}

std::uint64_t decode_job(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    const std::uint64_t index = r.u64();
    r.expect_end();
    return index;
}

// -------------------------------------------------------- result messages --

std::vector<std::uint8_t> encode_result(const run_result& res) {
    util::byte_writer w;
    w.u64(res.index);
    w.u64(res.seed);
    w.u8(res.ok ? 1 : 0);
    w.str(res.error);
    put_params(w, res.parameters);
    w.u32(static_cast<std::uint32_t>(res.measurements.size()));
    for (const auto& [name, v] : res.measurements) {
        w.str(name);
        w.f64(v);
    }
    w.f64_vec(res.times);
    w.u32(static_cast<std::uint32_t>(res.probe_names.size()));
    for (const auto& name : res.probe_names) w.str(name);
    w.u32(static_cast<std::uint32_t>(res.waveforms.size()));
    for (const auto& wf : res.waveforms) w.f64_vec(wf);
    w.u32(static_cast<std::uint32_t>(res.run_metrics.size()));
    for (const util::metric_value& mv : res.run_metrics) {
        w.str(mv.name);
        w.u8(static_cast<std::uint8_t>(mv.kind));
        w.u64(mv.count);
        w.f64(mv.value);
        w.f64(mv.min);
        w.f64(mv.max);
    }
    return w.take();
}

run_result decode_result(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    run_result res;
    res.index = r.u64();
    res.seed = r.u64();
    res.ok = r.u8() != 0;
    res.error = r.str();
    res.parameters = get_params(r);
    const std::uint32_t n_meas = r.u32();
    for (std::uint32_t i = 0; i < n_meas; ++i) {
        std::string name = r.str();
        res.measurements[name] = r.f64();
    }
    res.times = r.f64_vec();
    const std::uint32_t n_probes = r.u32();
    res.probe_names.reserve(n_probes);
    for (std::uint32_t i = 0; i < n_probes; ++i) res.probe_names.push_back(r.str());
    const std::uint32_t n_waves = r.u32();
    res.waveforms.reserve(n_waves);
    for (std::uint32_t i = 0; i < n_waves; ++i) res.waveforms.push_back(r.f64_vec());
    const std::uint32_t n_metrics = r.u32();
    for (std::uint32_t i = 0; i < n_metrics; ++i) {
        util::metric_value mv;
        mv.name = r.str();
        const std::uint8_t kind = r.u8();
        util::require(kind <= static_cast<std::uint8_t>(
                                  util::metric_value::metric_kind::histogram),
                      "run_protocol", "unknown metric kind");
        mv.kind = static_cast<util::metric_value::metric_kind>(kind);
        mv.count = r.u64();
        mv.value = r.f64();
        mv.min = r.f64();
        mv.max = r.f64();
        res.run_metrics.push_back(std::move(mv));
    }
    r.expect_end();
    return res;
}

std::vector<std::uint8_t> encode_params(const params& p) {
    util::byte_writer w;
    put_params(w, p);
    return w.take();
}

params decode_params(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    params p = get_params(r);
    r.expect_end();
    return p;
}

// ------------------------------------------------------- session messages --

std::vector<std::uint8_t> encode_hello(std::uint8_t version) {
    util::byte_writer w;
    w.u8(version);
    return w.take();
}

std::uint8_t decode_hello(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    const std::uint8_t version = r.u8();
    require_format_version(version, "hello");
    r.expect_end();
    return version;
}

std::vector<std::uint8_t> encode_catalog(const std::vector<catalog_entry>& entries) {
    util::byte_writer w;
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const catalog_entry& e : entries) {
        w.str(e.name);
        put_params(w, e.defaults);
    }
    return w.take();
}

std::vector<catalog_entry> decode_catalog(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    const std::uint32_t count = r.u32();
    std::vector<catalog_entry> entries;
    entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        catalog_entry e;
        e.name = r.str();
        e.defaults = get_params(r);
        entries.push_back(std::move(e));
    }
    r.expect_end();
    return entries;
}

std::vector<std::uint8_t> encode_open(const open_request& req) {
    util::byte_writer w;
    w.str(req.scenario);
    put_params(w, req.overrides);
    w.u64(req.slice_us);
    return w.take();
}

open_request decode_open(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    open_request req;
    req.scenario = r.str();
    req.overrides = get_params(r);
    req.slice_us = r.u64();
    r.expect_end();
    return req;
}

std::vector<std::uint8_t> encode_opened(const session_info& info) {
    util::byte_writer w;
    w.u64(info.session_id);
    w.f64(info.stop_time_s);
    w.f64(info.sample_period_s);
    w.u32(static_cast<std::uint32_t>(info.probes.size()));
    for (const std::string& p : info.probes) w.str(p);
    return w.take();
}

session_info decode_opened(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    session_info info;
    info.session_id = r.u64();
    info.stop_time_s = r.f64();
    info.sample_period_s = r.f64();
    const std::uint32_t count = r.u32();
    info.probes.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) info.probes.push_back(r.str());
    r.expect_end();
    return info;
}

std::vector<std::uint8_t> encode_poke(const param_poke& poke) {
    util::byte_writer w;
    w.str(poke.name);
    w.f64(poke.value);
    return w.take();
}

param_poke decode_poke(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    param_poke poke;
    poke.name = r.str();
    poke.value = r.f64();
    r.expect_end();
    return poke;
}

std::vector<std::uint8_t> encode_subscribe(const subscribe_request& req) {
    util::byte_writer w;
    w.str(req.probe);
    w.u8(req.on ? 1 : 0);
    return w.take();
}

subscribe_request decode_subscribe(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    subscribe_request req;
    req.probe = r.str();
    req.on = r.u8() != 0;
    r.expect_end();
    return req;
}

std::vector<std::uint8_t> encode_samples(const sample_batch& batch) {
    util::byte_writer w;
    w.str(batch.probe);
    w.u64(batch.first_index);
    w.u64(batch.dropped);
    w.f64_vec(batch.times);
    w.f64_vec(batch.values);
    return w.take();
}

sample_batch decode_samples(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    sample_batch batch;
    batch.probe = r.str();
    batch.first_index = r.u64();
    batch.dropped = r.u64();
    batch.times = r.f64_vec();
    batch.values = r.f64_vec();
    util::require(batch.times.size() == batch.values.size(), "run_protocol",
                  "sample batch times/values length mismatch");
    r.expect_end();
    return batch;
}

std::vector<std::uint8_t> encode_pace(const pace_info& info) {
    util::byte_writer w;
    w.f64(info.real_time_factor);
    w.f64(info.drift_s);
    w.f64(info.max_drift_s);
    return w.take();
}

pace_info decode_pace(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    pace_info info;
    info.real_time_factor = r.f64();
    info.drift_s = r.f64();
    info.max_drift_s = r.f64();
    r.expect_end();
    return info;
}

std::vector<std::uint8_t> encode_run_state(bool running) {
    util::byte_writer w;
    w.u8(running ? 1 : 0);
    return w.take();
}

bool decode_run_state(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    const std::uint8_t v = r.u8();
    util::require(v <= 1, "run_protocol", "unknown run_state value");
    r.expect_end();
    return v != 0;
}

std::vector<std::uint8_t> encode_close(const close_info& info) {
    util::byte_writer w;
    w.u8(static_cast<std::uint8_t>(info.reason));
    w.f64(info.sim_time_s);
    w.u64(info.samples_streamed);
    w.u64(info.samples_dropped);
    w.f64(info.pace_drift_s);
    w.f64(info.pace_max_drift_s);
    w.u64(info.max_queue_depth);
    w.u64(info.slices);
    w.u32(static_cast<std::uint32_t>(info.measurements.size()));
    for (const auto& [name, v] : info.measurements) {
        w.str(name);
        w.f64(v);
    }
    return w.take();
}

close_info decode_close(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    close_info info;
    const std::uint8_t reason = r.u8();
    util::require(reason <= static_cast<std::uint8_t>(close_reason::failed),
                  "run_protocol", "unknown close reason");
    info.reason = static_cast<close_reason>(reason);
    info.sim_time_s = r.f64();
    info.samples_streamed = r.u64();
    info.samples_dropped = r.u64();
    info.pace_drift_s = r.f64();
    info.pace_max_drift_s = r.f64();
    info.max_queue_depth = r.u64();
    info.slices = r.u64();
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name = r.str();
        info.measurements[name] = r.f64();
    }
    r.expect_end();
    return info;
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
    util::byte_writer w;
    w.str(message);
    return w.take();
}

std::string decode_error(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    std::string message = r.str();
    r.expect_end();
    return message;
}

std::vector<std::uint8_t> encode_stats(const stats_info& info) {
    util::byte_writer w;
    w.f64(info.sim_time_s);
    w.u64(info.slices);
    w.u64(info.samples_streamed);
    w.u64(info.samples_dropped);
    w.u64(info.queue_depth);
    w.u64(info.max_queue_depth);
    w.f64(info.pace_drift_s);
    w.f64(info.pace_max_drift_s);
    return w.take();
}

stats_info decode_stats(const std::uint8_t* data, std::size_t n) {
    util::byte_reader r(data, n);
    stats_info info;
    info.sim_time_s = r.f64();
    info.slices = r.u64();
    info.samples_streamed = r.u64();
    info.samples_dropped = r.u64();
    info.queue_depth = r.u64();
    info.max_queue_depth = r.u64();
    info.pace_drift_s = r.f64();
    info.pace_max_drift_s = r.f64();
    r.expect_end();
    return info;
}

// ----------------------------------------------------------------- frames --

namespace {

/// Header length: u32 magic | u32 payload_len | u8 type.
constexpr std::size_t k_header_size = 9;

struct frame_header {
    msg_type type;
    std::uint32_t payload_len;
};

/// The one decoder of the frame header.  Validates magic, the payload limit
/// and the type byte (1..k_max_msg_type are assigned), so every reader
/// refuses a garbage header before it allocates or waits for a payload.
frame_header read_header(util::byte_reader& r) {
    util::require(r.u32() == k_magic, "run_protocol", "bad frame magic");
    const std::uint32_t len = r.u32();
    if (len > k_max_payload) {
        util::report_fatal("run_protocol", "frame payload length " + std::to_string(len) +
                                               " exceeds the protocol limit");
    }
    const std::uint8_t type = r.u8();
    if (type < static_cast<std::uint8_t>(msg_type::job) || type > k_max_msg_type) {
        util::report_fatal("run_protocol", "unknown frame type " + std::to_string(type));
    }
    return {static_cast<msg_type>(type), len};
}

void check_sum(std::uint32_t sum, const std::vector<std::uint8_t>& payload) {
    util::require(sum == util::fnv1a_32(payload.data(), payload.size()), "run_protocol",
                  "frame checksum mismatch");
}

}  // namespace

std::vector<std::uint8_t> pack_frame(msg_type type,
                                     const std::vector<std::uint8_t>& payload) {
    util::require(payload.size() <= k_max_payload, "run_protocol",
                  "frame payload exceeds the 256 MiB protocol limit");
    util::byte_writer w;
    w.reserve(k_header_size + payload.size() + 4);
    w.u32(k_magic);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u8(static_cast<std::uint8_t>(type));
    w.raw(payload);
    w.u32(util::fnv1a_32(payload.data(), payload.size()));
    return w.take();
}

bool unpack_frame(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                  frame& out) {
    if (offset == size) return false;
    util::byte_reader r(data + offset, size - offset);
    const frame_header h = read_header(r);
    out.type = h.type;
    r.raw(out.payload, h.payload_len);
    check_sum(r.u32(), out.payload);
    offset = size - r.remaining();
    return true;
}

std::size_t frame_size_hint(const std::uint8_t* data, std::size_t size) {
    if (size < k_header_size) return 0;  // header incomplete: read more
    util::byte_reader r(data, k_header_size);
    return k_header_size + read_header(r).payload_len + 4;  // + checksum
}

namespace {

/// send() with MSG_NOSIGNAL where the fd is a socket, plain write() where it
/// is not (journal files): writing to a dead peer must return EPIPE instead
/// of raising SIGPIPE.
ssize_t write_some(int fd, const std::uint8_t* data, std::size_t n) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data, n);
    return w;
}

}  // namespace

bool write_frame(int fd, msg_type type, const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> bytes = pack_frame(type, payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t w = write_some(fd, bytes.data() + off, bytes.size() - off);
        if (w < 0) {
            if (errno == EINTR) continue;
            if (errno == EPIPE || errno == ECONNRESET) return false;
            util::report_fatal("run_protocol",
                               std::string("frame write failed: ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

namespace {

/// Read exactly `n` bytes from a blocking fd.  Returns 0 on immediate EOF,
/// n on success; throws on EOF mid-read or I/O error.
std::size_t read_exact(int fd, std::uint8_t* data, std::size_t n, bool eof_ok) {
    std::size_t off = 0;
    while (off < n) {
        const ssize_t r = ::read(fd, data + off, n - off);
        if (r < 0) {
            if (errno == EINTR) continue;
            util::report_fatal("run_protocol",
                               std::string("frame read failed: ") + std::strerror(errno));
        }
        if (r == 0) {
            if (off == 0 && eof_ok) return 0;
            util::report_fatal("run_protocol", "truncated frame: EOF mid-message");
        }
        off += static_cast<std::size_t>(r);
    }
    return n;
}

}  // namespace

bool read_frame(int fd, frame& out) {
    std::uint8_t header[k_header_size];
    if (read_exact(fd, header, sizeof header, /*eof_ok=*/true) == 0) return false;
    util::byte_reader hr(header, sizeof header);
    const frame_header h = read_header(hr);
    out.type = h.type;
    out.payload.resize(h.payload_len);
    if (h.payload_len > 0) read_exact(fd, out.payload.data(), h.payload_len, false);
    std::uint8_t sum[4];
    read_exact(fd, sum, sizeof sum, /*eof_ok=*/false);
    util::byte_reader sr(sum, sizeof sum);
    check_sum(sr.u32(), out.payload);
    return true;
}

}  // namespace sca::core::wire
