// Wire protocol for out-of-process run_set execution: byte-exact round trips
// for jobs, params and results (including NaN/Inf/signed-zero/denormal
// doubles — the transport must preserve bit patterns, not values), and the
// robustness contract: truncated frames, oversized payloads, bad magic and
// checksum mismatches throw instead of yielding garbage.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/run_protocol.hpp"
#include "core/run_set.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace core = sca::core;
namespace wire = sca::core::wire;

namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// The doubles that break value-based transports: quiet/signaling-style NaN
/// payloads, both infinities, both zeros, denormals, and extremes.
std::vector<double> nasty_doubles() {
    return {
        std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7ff0dead'beef0001ULL}),  // NaN payload
        std::bit_cast<double>(std::uint64_t{0xfff00000'00000001ULL}),  // -NaN
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        1.0 / 3.0,
    };
}

}  // namespace

// ------------------------------------------------------------- round trips --

TEST(run_protocol, job_round_trip) {
    const auto payload = wire::encode_job(0xdeadbeef12345678ULL);
    EXPECT_EQ(wire::decode_job(payload.data(), payload.size()), 0xdeadbeef12345678ULL);
}

TEST(run_protocol, params_round_trip_preserves_identity_and_types) {
    core::params p{{"r", 2.2e3}, {"mode", "fast"}};
    p.set_run_identity(42, 0x5ca5eedULL);
    const auto payload = wire::encode_params(p);
    const core::params q = wire::decode_params(payload.data(), payload.size());
    EXPECT_EQ(q.run_index(), 42U);
    EXPECT_EQ(q.seed(), 0x5ca5eedULL);
    EXPECT_DOUBLE_EQ(q.number("r"), 2.2e3);
    EXPECT_EQ(q.text("mode"), "fast");
    EXPECT_EQ(q.entries().size(), 2U);
}

TEST(run_protocol, result_round_trip_is_bit_exact_for_nasty_doubles) {
    core::run_result r;
    r.index = 7;
    r.seed = 1234;
    r.ok = true;
    r.parameters.set("x", -0.0);
    r.parameters.set_run_identity(7, 1234);
    r.times = nasty_doubles();
    r.probe_names = {"v(nan)", "i"};
    r.waveforms = {nasty_doubles(), {1.5, 2.5}};
    r.measurements["nan_meas"] = std::numeric_limits<double>::quiet_NaN();
    r.measurements["inf_meas"] = -std::numeric_limits<double>::infinity();

    const auto payload = wire::encode_result(r);
    const core::run_result d = wire::decode_result(payload.data(), payload.size());

    EXPECT_EQ(d.index, 7U);
    EXPECT_EQ(d.seed, 1234U);
    EXPECT_TRUE(d.ok);
    EXPECT_TRUE(d.error.empty());
    EXPECT_EQ(bits(d.parameters.number("x")), bits(-0.0));  // sign of zero survives
    ASSERT_EQ(d.times.size(), r.times.size());
    for (std::size_t i = 0; i < r.times.size(); ++i) {
        EXPECT_EQ(bits(d.times[i]), bits(r.times[i])) << "times[" << i << "]";
    }
    ASSERT_EQ(d.waveforms.size(), 2U);
    ASSERT_EQ(d.waveforms[0].size(), r.waveforms[0].size());
    for (std::size_t i = 0; i < r.waveforms[0].size(); ++i) {
        EXPECT_EQ(bits(d.waveforms[0][i]), bits(r.waveforms[0][i])) << "wave[" << i << "]";
    }
    EXPECT_EQ(d.probe_names, r.probe_names);
    EXPECT_EQ(bits(d.measurements.at("nan_meas")), bits(r.measurements.at("nan_meas")));
    EXPECT_EQ(bits(d.measurements.at("inf_meas")), bits(r.measurements.at("inf_meas")));
}

TEST(run_protocol, error_result_round_trip) {
    core::run_result r;
    r.index = 3;
    r.seed = 99;
    r.ok = false;
    r.error = "solver diverged: matrix is singular\nsecond line, \"quoted\"";
    const auto payload = wire::encode_result(r);
    const core::run_result d = wire::decode_result(payload.data(), payload.size());
    EXPECT_FALSE(d.ok);
    EXPECT_EQ(d.error, r.error);
    EXPECT_TRUE(d.waveforms.empty());
}

TEST(run_protocol, frame_pack_unpack_round_trip) {
    const auto payload = wire::encode_job(17);
    const auto bytes = wire::pack_frame(wire::msg_type::job, payload);
    std::size_t offset = 0;
    wire::frame f;
    ASSERT_TRUE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
    EXPECT_EQ(f.type, wire::msg_type::job);
    EXPECT_EQ(f.payload, payload);
    EXPECT_EQ(offset, bytes.size());
    // Clean end: no more frames, no throw.
    EXPECT_FALSE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
}

TEST(run_protocol, multiple_frames_in_one_buffer) {
    auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(1));
    const auto second = wire::pack_frame(wire::msg_type::shutdown, {});
    bytes.insert(bytes.end(), second.begin(), second.end());
    std::size_t offset = 0;
    wire::frame f;
    ASSERT_TRUE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
    EXPECT_EQ(f.type, wire::msg_type::job);
    ASSERT_TRUE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
    EXPECT_EQ(f.type, wire::msg_type::shutdown);
    EXPECT_TRUE(f.payload.empty());
    EXPECT_FALSE(wire::unpack_frame(bytes.data(), bytes.size(), offset, f));
}

// -------------------------------------------------------------- rejection --

TEST(run_protocol, truncated_frame_throws_at_every_cut) {
    const auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(5));
    // Any strict prefix must throw (mid-frame truncation), never return
    // false (which means "clean end of stream") and never parse.
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        std::size_t offset = 0;
        wire::frame f;
        EXPECT_THROW((void)wire::unpack_frame(bytes.data(), cut, offset, f),
                     sca::util::error)
            << "prefix of " << cut << " bytes";
    }
}

TEST(run_protocol, bad_magic_is_rejected) {
    auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(5));
    bytes[0] ^= 0xff;
    std::size_t offset = 0;
    wire::frame f;
    EXPECT_THROW((void)wire::unpack_frame(bytes.data(), bytes.size(), offset, f),
                 sca::util::error);
}

TEST(run_protocol, corrupted_payload_fails_the_checksum) {
    auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(5));
    bytes[9] ^= 0x01;  // flip one payload bit; length/type stay plausible
    std::size_t offset = 0;
    wire::frame f;
    EXPECT_THROW((void)wire::unpack_frame(bytes.data(), bytes.size(), offset, f),
                 sca::util::error);
}

TEST(run_protocol, oversized_length_prefix_is_rejected_before_allocation) {
    auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(5));
    // Rewrite the length field (bytes 4..7, little-endian) to > k_max_payload.
    const std::uint32_t huge = wire::k_max_payload + 1;
    for (int i = 0; i < 4; ++i) bytes[4 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
    std::size_t offset = 0;
    wire::frame f;
    EXPECT_THROW((void)wire::unpack_frame(bytes.data(), bytes.size(), offset, f),
                 sca::util::error);
}

TEST(run_protocol, unknown_frame_type_is_rejected) {
    auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(5));
    bytes[8] = 0x77;  // type byte
    std::size_t offset = 0;
    wire::frame f;
    EXPECT_THROW((void)wire::unpack_frame(bytes.data(), bytes.size(), offset, f),
                 sca::util::error);
}

TEST(run_protocol, short_payload_decoders_throw) {
    const auto payload = wire::encode_job(5);
    EXPECT_THROW((void)wire::decode_job(payload.data(), payload.size() - 1),
                 sca::util::error);
    core::run_result r;
    r.index = 1;
    r.ok = true;
    const auto res = wire::encode_result(r);
    for (const std::size_t cut : {res.size() / 2, res.size() - 1}) {
        EXPECT_THROW((void)wire::decode_result(res.data(), cut), sca::util::error);
    }
}

TEST(run_protocol, trailing_garbage_after_payload_is_rejected) {
    auto payload = wire::encode_job(5);
    payload.push_back(0x00);
    EXPECT_THROW((void)wire::decode_job(payload.data(), payload.size()),
                 sca::util::error);
}

// ------------------------------------------------------- session protocol --

TEST(session_protocol, hello_round_trip_and_version_guard) {
    const auto payload = wire::encode_hello(wire::k_format_version);
    EXPECT_EQ(wire::decode_hello(payload.data(), payload.size()),
              wire::k_format_version);
    // Any other version, older or newer, is refused by name.
    for (const std::uint8_t other : {0, wire::k_format_version - 1, wire::k_format_version + 1}) {
        const auto hello = wire::encode_hello(static_cast<std::uint8_t>(other));
        try {
            (void)wire::decode_hello(hello.data(), hello.size());
            ADD_FAILURE() << "hello version " << int(other) << " was accepted";
        } catch (const sca::util::error& e) {
            EXPECT_NE(std::string(e.what()).find("unsupported hello version " +
                                                 std::to_string(other)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(session_protocol, catalog_round_trip) {
    std::vector<wire::catalog_entry> entries(2);
    entries[0].name = "adaptive_receiver";
    entries[0].defaults = core::params{{"threshold", 0.25}, {"mode", "fast"}};
    entries[1].name = "rc_filter";
    const auto payload = wire::encode_catalog(entries);
    const auto d = wire::decode_catalog(payload.data(), payload.size());
    ASSERT_EQ(d.size(), 2U);
    EXPECT_EQ(d[0].name, "adaptive_receiver");
    EXPECT_DOUBLE_EQ(d[0].defaults.number("threshold"), 0.25);
    EXPECT_EQ(d[0].defaults.text("mode"), "fast");
    EXPECT_EQ(d[1].name, "rc_filter");
    EXPECT_TRUE(d[1].defaults.entries().empty());
}

TEST(session_protocol, open_round_trip) {
    wire::open_request req;
    req.scenario = "adaptive_receiver";
    req.overrides = core::params{{"threshold", 0.5}};
    req.slice_us = 250;
    const auto payload = wire::encode_open(req);
    const wire::open_request d = wire::decode_open(payload.data(), payload.size());
    EXPECT_EQ(d.scenario, req.scenario);
    EXPECT_DOUBLE_EQ(d.overrides.number("threshold"), 0.5);
    EXPECT_EQ(d.slice_us, 250U);
}

TEST(session_protocol, opened_round_trip) {
    wire::session_info info;
    info.session_id = 0xfeedface01ULL;
    info.stop_time_s = 0.2;
    info.sample_period_s = 64e-6;
    info.probes = {"decimated", "level"};
    const auto payload = wire::encode_opened(info);
    const wire::session_info d = wire::decode_opened(payload.data(), payload.size());
    EXPECT_EQ(d.session_id, info.session_id);
    EXPECT_DOUBLE_EQ(d.stop_time_s, 0.2);
    EXPECT_DOUBLE_EQ(d.sample_period_s, 64e-6);
    EXPECT_EQ(d.probes, info.probes);
}

TEST(session_protocol, poke_and_subscribe_round_trips) {
    const auto poke = wire::encode_poke({"threshold", -0.0});
    const wire::param_poke p = wire::decode_poke(poke.data(), poke.size());
    EXPECT_EQ(p.name, "threshold");
    EXPECT_EQ(bits(p.value), bits(-0.0));

    for (const bool on : {true, false}) {
        wire::subscribe_request req;
        req.probe = "decimated";
        req.on = on;
        const auto payload = wire::encode_subscribe(req);
        const wire::subscribe_request d =
            wire::decode_subscribe(payload.data(), payload.size());
        EXPECT_EQ(d.probe, "decimated");
        EXPECT_EQ(d.on, on);
    }
}

TEST(session_protocol, sample_batch_round_trip_is_bit_exact) {
    wire::sample_batch batch;
    batch.probe = "v(out)";
    batch.first_index = 512;
    batch.dropped = 64;
    batch.times = nasty_doubles();
    batch.values = nasty_doubles();
    const auto payload = wire::encode_samples(batch);
    const wire::sample_batch d = wire::decode_samples(payload.data(), payload.size());
    EXPECT_EQ(d.probe, batch.probe);
    EXPECT_EQ(d.first_index, 512U);
    EXPECT_EQ(d.dropped, 64U);
    ASSERT_EQ(d.times.size(), batch.times.size());
    ASSERT_EQ(d.values.size(), batch.values.size());
    for (std::size_t i = 0; i < batch.times.size(); ++i) {
        EXPECT_EQ(bits(d.times[i]), bits(batch.times[i])) << "times[" << i << "]";
        EXPECT_EQ(bits(d.values[i]), bits(batch.values[i])) << "values[" << i << "]";
    }
}

TEST(session_protocol, sample_batch_with_mismatched_lengths_is_rejected) {
    wire::sample_batch batch;
    batch.probe = "p";
    batch.times = {1.0, 2.0, 3.0};
    batch.values = {1.0, 2.0};  // one short: decoder must refuse
    const auto payload = wire::encode_samples(batch);
    EXPECT_THROW((void)wire::decode_samples(payload.data(), payload.size()),
                 sca::util::error);
}

TEST(session_protocol, pace_and_run_state_round_trips) {
    wire::pace_info info;
    info.real_time_factor = 10.0;
    info.drift_s = 1.5e-3;
    info.max_drift_s = 2.5e-3;
    const auto payload = wire::encode_pace(info);
    const wire::pace_info d = wire::decode_pace(payload.data(), payload.size());
    EXPECT_DOUBLE_EQ(d.real_time_factor, 10.0);
    EXPECT_DOUBLE_EQ(d.drift_s, 1.5e-3);
    EXPECT_DOUBLE_EQ(d.max_drift_s, 2.5e-3);

    for (const bool running : {true, false}) {
        const auto rs = wire::encode_run_state(running);
        EXPECT_EQ(wire::decode_run_state(rs.data(), rs.size()), running);
    }
    const std::uint8_t bogus[] = {2};
    EXPECT_THROW((void)wire::decode_run_state(bogus, 1), sca::util::error);
}

TEST(session_protocol, close_round_trip) {
    wire::close_info info;
    info.reason = wire::close_reason::finished;
    info.sim_time_s = 0.1;
    info.samples_streamed = 12345;
    info.samples_dropped = 67;
    info.pace_drift_s = 3e-4;
    info.pace_max_drift_s = 9e-4;
    info.max_queue_depth = 31;
    info.slices = 4000;
    info.measurements["rms"] = 0.7071;
    info.measurements["nan"] = std::numeric_limits<double>::quiet_NaN();
    const auto payload = wire::encode_close(info);
    const wire::close_info d = wire::decode_close(payload.data(), payload.size());
    EXPECT_EQ(d.reason, wire::close_reason::finished);
    EXPECT_DOUBLE_EQ(d.sim_time_s, 0.1);
    EXPECT_EQ(d.samples_streamed, 12345U);
    EXPECT_EQ(d.samples_dropped, 67U);
    EXPECT_DOUBLE_EQ(d.pace_drift_s, 3e-4);
    EXPECT_DOUBLE_EQ(d.pace_max_drift_s, 9e-4);
    EXPECT_EQ(d.max_queue_depth, 31U);
    EXPECT_EQ(d.slices, 4000U);
    EXPECT_DOUBLE_EQ(d.measurements.at("rms"), 0.7071);
    EXPECT_TRUE(std::isnan(d.measurements.at("nan")));
}

TEST(session_protocol, stats_round_trip) {
    wire::stats_info info;
    info.sim_time_s = 2.5e-3;
    info.slices = 640;
    info.samples_streamed = 98765;
    info.samples_dropped = 12;
    info.queue_depth = 7;
    info.max_queue_depth = 42;
    info.pace_drift_s = -1e-5;
    info.pace_max_drift_s = 4e-4;
    const auto payload = wire::encode_stats(info);
    const wire::stats_info d = wire::decode_stats(payload.data(), payload.size());
    EXPECT_DOUBLE_EQ(d.sim_time_s, 2.5e-3);
    EXPECT_EQ(d.slices, 640U);
    EXPECT_EQ(d.samples_streamed, 98765U);
    EXPECT_EQ(d.samples_dropped, 12U);
    EXPECT_EQ(d.queue_depth, 7U);
    EXPECT_EQ(d.max_queue_depth, 42U);
    EXPECT_DOUBLE_EQ(d.pace_drift_s, -1e-5);
    EXPECT_DOUBLE_EQ(d.pace_max_drift_s, 4e-4);
}

TEST(run_protocol, metrics_round_trip_is_bit_exact_for_nasty_doubles) {
    // Gauges carry arbitrary doubles: the run metrics inside the result
    // payload must move them bit-exactly, like measurements do.
    namespace util = sca::util;
    core::run_result r;
    r.index = 17;
    r.ok = true;
    util::metric_value c;
    c.name = "kernel.delta_cycles";
    c.kind = util::metric_value::metric_kind::counter;
    c.count = 123456789;
    r.run_metrics.push_back(c);
    for (const double v : nasty_doubles()) {
        util::metric_value g;
        g.name = "gauge_" + std::to_string(r.run_metrics.size());
        g.kind = util::metric_value::metric_kind::gauge;
        g.value = v;
        r.run_metrics.push_back(g);
    }
    const auto payload = wire::encode_result(r);
    const core::run_result d = wire::decode_result(payload.data(), payload.size());
    EXPECT_EQ(d.index, 17U);
    ASSERT_EQ(d.run_metrics.size(), r.run_metrics.size());
    for (std::size_t i = 0; i < r.run_metrics.size(); ++i) {
        EXPECT_EQ(d.run_metrics[i].name, r.run_metrics[i].name);
        EXPECT_EQ(d.run_metrics[i].kind, r.run_metrics[i].kind);
        EXPECT_EQ(d.run_metrics[i].count, r.run_metrics[i].count);
        EXPECT_EQ(bits(d.run_metrics[i].value), bits(r.run_metrics[i].value)) << i;
    }
}

TEST(session_protocol, error_round_trip) {
    const std::string msg = "no probe named 'x'\nwith a second line";
    const auto payload = wire::encode_error(msg);
    EXPECT_EQ(wire::decode_error(payload.data(), payload.size()), msg);
}

TEST(session_protocol, session_frames_truncate_and_corrupt_like_v0_frames) {
    // The robustness contract extends unchanged to every new frame type:
    // any strict prefix throws, any payload bit flip fails the checksum.
    wire::sample_batch batch;
    batch.probe = "p";
    batch.times = {1.0, 2.0};
    batch.values = {3.0, 4.0};
    const auto bytes = wire::pack_frame(wire::msg_type::samples,
                                        wire::encode_samples(batch));
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        std::size_t offset = 0;
        wire::frame f;
        EXPECT_THROW((void)wire::unpack_frame(bytes.data(), cut, offset, f),
                     sca::util::error)
            << "prefix of " << cut << " bytes";
    }
    auto corrupt = bytes;
    corrupt[10] ^= 0x40;
    std::size_t offset = 0;
    wire::frame f;
    EXPECT_THROW((void)wire::unpack_frame(corrupt.data(), corrupt.size(), offset, f),
                 sca::util::error);
}

TEST(session_protocol, v0_frame_layout_is_frozen) {
    // Byte-for-byte guard on the framing: header magic 'SCA1', little-endian
    // length, type byte, payload, FNV-1a trailer.
    const auto bytes = wire::pack_frame(wire::msg_type::job, wire::encode_job(5));
    const std::vector<std::uint8_t> expected = {
        'S', 'C', 'A', '1',          // magic
        8,   0,   0,   0,            // payload length = 8
        1,                           // msg_type::job
        5,   0,   0,   0, 0, 0, 0, 0,  // u64 run index, little-endian
        0xc0, 0x95, 0xfa, 0xc8,      // fnv1a over the payload
    };
    ASSERT_EQ(bytes.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(bytes[i], expected[i]) << "byte " << i;
    }
}

TEST(session_protocol, frame_size_hint_distinguishes_wait_from_garbage) {
    const auto bytes = wire::pack_frame(wire::msg_type::hello,
                                        wire::encode_hello(wire::k_format_version));
    // Incomplete header: "read more", no exception.
    for (std::size_t n = 0; n < 9; ++n) {
        EXPECT_EQ(wire::frame_size_hint(bytes.data(), n), 0U) << n << " bytes";
    }
    // Complete header: the exact frame size, even before the body arrives.
    for (std::size_t n = 9; n <= bytes.size(); ++n) {
        EXPECT_EQ(wire::frame_size_hint(bytes.data(), n), bytes.size());
    }
    auto bad_magic = bytes;
    bad_magic[1] ^= 0xff;
    EXPECT_THROW((void)wire::frame_size_hint(bad_magic.data(), bad_magic.size()),
                 sca::util::error);
    auto huge = bytes;
    const std::uint32_t too_big = wire::k_max_payload + 1;
    for (int i = 0; i < 4; ++i) {
        huge[4 + i] = static_cast<std::uint8_t>(too_big >> (8 * i));
    }
    EXPECT_THROW((void)wire::frame_size_hint(huge.data(), huge.size()),
                 sca::util::error);
    // An unassigned type byte is garbage from the 9 header bytes alone, even
    // when the header announces a payload the peer never has to send.
    auto untyped = bytes;
    const std::uint32_t big = 200U * 1024U * 1024U;
    for (int i = 0; i < 4; ++i) {
        untyped[4 + i] = static_cast<std::uint8_t>(big >> (8 * i));
    }
    for (const std::uint8_t type : {0, wire::k_max_msg_type + 1, 0xff}) {
        untyped[8] = type;
        EXPECT_THROW((void)wire::frame_size_hint(untyped.data(), 9), sca::util::error)
            << "type " << int(type);
    }
}

TEST(run_protocol, fnv1a_is_stable) {
    // Reference vectors (FNV-1a 32-bit): guards the journal format across
    // refactors — a silent hash change would orphan existing checkpoints.
    const std::uint8_t abc[] = {'a', 'b', 'c'};
    EXPECT_EQ(sca::util::fnv1a_32(abc, 3), 0x1a47e90bU);
    EXPECT_EQ(sca::util::fnv1a_32(nullptr, 0), 0x811c9dc5U);
}
