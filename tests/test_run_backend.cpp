// run_set execution backends: the multiprocess and remote-TCP backends must
// produce result tables byte-identical (CSV compare — identical doubles
// format identically) to sequential in-thread execution at any worker count;
// a run that throws records `error` without poisoning the table on every
// backend; a SIGKILLed worker costs only its in-flight run; and a checkpoint
// journal lets the campaign resume with every run index computed exactly
// once.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/net.hpp"
#include "core/run_backend.hpp"
#include "core/run_checkpoint.hpp"
#include "core/run_protocol.hpp"
#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "util/bytes.hpp"
#include "util/measure.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
using namespace sca::de::literals;

namespace {

/// Set before run_all(); forked workers inherit the value, so a worker
/// executing this run index kills itself mid-run (never the test process —
/// only the multiprocess backend runs the kill scenario).
volatile std::sig_atomic_t g_kill_run_index = -1;

/// RC lowpass scenario (the suite's reference testbench).
core::scenario define_rc(const std::string& name) {
    return core::scenario::define(
        name, core::params{{"r", 1e3}, {"c", 100e-9}, {"f", 1e3}},
        [](core::testbench& tb, const core::params& p) {
            if (static_cast<std::sig_atomic_t>(p.run_index()) == g_kill_run_index) {
                ::raise(SIGKILL);
            }
            if (p.get("blow_up", 0.0) != 0.0) {
                throw sca::util::error("test", "requested failure");
            }
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(5.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd,
                                  eln::waveform::sine(1.0, p.get("f", 1e3)));
            tb.make<eln::resistor>("r", net, vin, vout, p.get("r", 1e3));
            tb.make<eln::capacitor>("c", net, vout, gnd, p.get("c", 100e-9));
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.measure("vout_rms",
                       [&tb] { return sca::util::rms(tb.waveform("vout")); });
            tb.set_stop_time(de::time::from_seconds(1e-3));
            tb.set_sample_period(20_us);
        });
}

core::run_set make_grid_set(const core::scenario& sc) {
    return core::run_set(sc)
        .with_grid(core::param_grid()
                       .add_logspace("r", 100.0, 10e3, 3)
                       .add("c", {47e-9, 100e-9, 220e-9}))
        .set_base_seed(0xfeedULL);
}

core::run_set make_mc_set(const core::scenario& sc) {
    return core::run_set(sc)
        .with_samples(core::monte_carlo(9)
                          .uniform("r", 500.0, 5e3)
                          .normal("c", 100e-9, 10e-9))
        .set_base_seed(0xfeedULL);
}

std::string csv_of(const core::result_table& t) {
    std::ostringstream os;
    t.write_csv(os);
    return os.str();
}

std::string metrics_csv_of(const core::result_table& t) {
    std::ostringstream os;
    t.write_metrics_csv(os);
    return os.str();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

std::string temp_journal(const std::string& tag) {
    const std::string path = ::testing::TempDir() + "journal_" + tag + ".sca";
    std::remove(path.c_str());
    return path;
}

}  // namespace

// ------------------------------------------------------------ bit identity --

TEST(run_backend, multiprocess_grid_is_bit_identical_to_sequential) {
    const auto rc = define_rc("mp_grid");
    const std::string golden =
        csv_of(make_grid_set(rc).set_workers(1).run_all());
    for (const unsigned workers : {1U, 2U, 4U, 8U}) {
        const auto table = make_grid_set(rc)
                               .set_backend(core::run_backend::multiprocess)
                               .set_workers(workers)
                               .run_all();
        EXPECT_EQ(table.failed_count(), 0U) << "workers=" << workers;
        EXPECT_EQ(csv_of(table), golden) << "workers=" << workers;
    }
}

TEST(run_backend, multiprocess_monte_carlo_is_bit_identical_to_sequential) {
    const auto rc = define_rc("mp_mc");
    const std::string golden = csv_of(make_mc_set(rc).set_workers(1).run_all());
    for (const unsigned workers : {1U, 2U, 4U, 8U}) {
        EXPECT_EQ(csv_of(make_mc_set(rc)
                             .set_backend(core::run_backend::multiprocess)
                             .set_workers(workers)
                             .run_all()),
                  golden)
            << "workers=" << workers;
    }
}

TEST(run_backend, multiprocess_waveforms_survive_the_pipe_bit_exactly) {
    const auto rc = define_rc("mp_wave");
    const auto seq = make_grid_set(rc).set_workers(1).run_all();
    const auto mp = make_grid_set(rc)
                        .set_backend(core::run_backend::multiprocess)
                        .set_workers(4)
                        .run_all();
    ASSERT_EQ(mp.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(mp[i].seed, seq[i].seed);
        EXPECT_EQ(mp[i].times, seq[i].times);
        EXPECT_EQ(mp[i].waveforms, seq[i].waveforms);
    }
}

// ------------------------------------------------------- failure semantics --

TEST(run_backend, throwing_run_records_error_on_every_backend) {
    const auto rc = define_rc("fail_backends");
    auto build = [&rc] {
        return core::run_set(rc).with_grid(
            core::param_grid().add("blow_up", {0.0, 1.0, 0.0, 1.0, 0.0}));
    };
    for (const auto backend :
         {core::run_backend::in_thread, core::run_backend::multiprocess}) {
        const auto table = build().set_backend(backend).set_workers(2).run_all();
        ASSERT_EQ(table.size(), 5U);
        EXPECT_EQ(table.failed_count(), 2U);
        for (const std::size_t bad : {1U, 3U}) {
            EXPECT_FALSE(table[bad].ok);
            EXPECT_NE(table[bad].error.find("requested failure"), std::string::npos);
        }
        for (const std::size_t good : {0U, 2U, 4U}) {
            EXPECT_TRUE(table[good].ok) << "backend did not isolate the failure";
            EXPECT_GT(table[good].measurements.at("vout_rms"), 0.0);
        }
    }
}

TEST(run_backend, sigkilled_worker_loses_only_its_run) {
    const auto rc = define_rc("kill_one");
    g_kill_run_index = 4;
    const auto table = make_grid_set(rc)
                           .set_backend(core::run_backend::multiprocess)
                           .set_workers(2)
                           .run_all();
    g_kill_run_index = -1;
    ASSERT_EQ(table.size(), 9U);
    EXPECT_EQ(table.failed_count(), 1U);
    EXPECT_FALSE(table[4].ok);
    EXPECT_NE(table[4].error.find("signal 9"), std::string::npos) << table[4].error;
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (i == 4) continue;
        EXPECT_TRUE(table[i].ok) << "run " << i << ": " << table[i].error;
    }
}

// ---------------------------------------------------- checkpoint / resume --

TEST(run_backend, checkpoint_resume_completes_a_killed_campaign) {
    const auto rc = define_rc("kill_resume");
    const std::string journal = temp_journal("kill_resume");

    // First attempt: worker for run 4 is SIGKILLed.  The lost run is NOT
    // journaled (it never completed); every other run is.
    g_kill_run_index = 4;
    const auto first = make_grid_set(rc)
                           .set_backend(core::run_backend::multiprocess)
                           .set_workers(2)
                           .set_checkpoint(journal)
                           .run_all();
    g_kill_run_index = -1;
    EXPECT_EQ(first.failed_count(), 1U);
    EXPECT_EQ(core::checkpoint_indices(journal).size(), 8U);

    // Resume: same campaign, same journal — only run 4 recomputes, and the
    // final table and its run metrics match an uninterrupted sequential run
    // byte for byte.
    const auto resumed = make_grid_set(rc)
                             .set_backend(core::run_backend::multiprocess)
                             .set_workers(2)
                             .set_checkpoint(journal)
                             .run_all();
    EXPECT_EQ(resumed.failed_count(), 0U);
    const auto sequential = make_grid_set(rc).set_workers(1).run_all();
    EXPECT_EQ(csv_of(resumed), csv_of(sequential));
    EXPECT_EQ(metrics_csv_of(resumed), metrics_csv_of(sequential));

    // Across both attempts, every run index was journaled exactly once.
    auto indices = core::checkpoint_indices(journal);
    std::sort(indices.begin(), indices.end());
    ASSERT_EQ(indices.size(), 9U);
    for (std::size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
    std::remove(journal.c_str());
}

TEST(run_backend, completed_checkpoint_skips_all_work) {
    const auto rc = define_rc("ckpt_done");
    const std::string journal = temp_journal("ckpt_done");
    const std::string golden =
        csv_of(make_grid_set(rc).set_checkpoint(journal).run_all());
    // Second run with the journal present: nothing recomputes (no result
    // callbacks fire) and the table is identical.
    std::atomic<int> computed{0};
    const auto again = make_grid_set(rc)
                           .set_checkpoint(journal)
                           .on_result([&](const core::run_result&) { ++computed; })
                           .run_all();
    EXPECT_EQ(computed.load(), 0);
    EXPECT_EQ(csv_of(again), golden);
    // The journal keeps each run's metrics along with its result.
    EXPECT_EQ(metrics_csv_of(again),
              metrics_csv_of(make_grid_set(rc).set_workers(1).run_all()));
    std::remove(journal.c_str());
}

TEST(run_backend, mismatched_checkpoint_is_refused) {
    const auto rc = define_rc("ckpt_mismatch");
    const std::string journal = temp_journal("ckpt_mismatch");
    (void)make_grid_set(rc).set_checkpoint(journal).run_all();
    // Same journal, different base seed -> different campaign fingerprint.
    EXPECT_THROW((void)make_grid_set(rc)
                     .set_base_seed(0xbadULL)
                     .set_checkpoint(journal)
                     .run_all(),
                 sca::util::error);
    std::remove(journal.c_str());

    // A journal whose header carries another format version (here: the
    // right campaign, one version back) is refused by name: nothing is
    // computed and nothing is appended to it.
    const std::string stale = temp_journal("ckpt_stale");
    const std::uint32_t old_version = core::wire::k_format_version - 1;
    sca::util::byte_writer header;
    header.u32(old_version);
    header.str("ckpt_mismatch");
    header.u64(0xfeedULL);
    header.u64(9);
    header.boolean(true);
    const auto bytes =
        core::wire::pack_frame(core::wire::msg_type::header, header.take());
    std::ofstream(stale, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    std::atomic<int> computed{0};
    try {
        (void)make_grid_set(rc)
            .set_checkpoint(stale)
            .on_result([&](const core::run_result&) { ++computed; })
            .run_all();
        ADD_FAILURE() << "a version " << old_version << " journal was resumed";
    } catch (const sca::util::error& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported journal '" + stale + "' version " +
                                             std::to_string(old_version)),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(computed.load(), 0);
    EXPECT_EQ(read_file(stale), bytes);
    std::remove(stale.c_str());
}

// ------------------------------------------------------ streaming delivery --

TEST(run_backend, streamed_rows_and_callbacks_arrive_per_result) {
    const auto rc = define_rc("stream");
    std::ostringstream streamed;
    std::atomic<int> seen{0};
    const auto table = make_grid_set(rc)
                           .set_backend(core::run_backend::multiprocess)
                           .set_workers(4)
                           .stream_csv(streamed)
                           .on_result([&](const core::run_result& r) {
                               EXPECT_TRUE(r.ok);
                               ++seen;
                           })
                           .run_all();
    EXPECT_EQ(seen.load(), 9);
    // Header + one row per run (arrival order is nondeterministic; the row
    // count is not).
    const std::string s = streamed.str();
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 10);
}

// -------------------------------------------------------------- remote TCP --

TEST(run_backend, remote_tcp_worker_matches_sequential) {
    const auto rc = define_rc("tcp");
    const auto rs = make_grid_set(rc);
    std::uint16_t port = 0;
    const int listen_fd = core::net::listen_tcp(port);
    ASSERT_GT(listen_fd, 0);
    ASSERT_NE(port, 0);
    const pid_t server = fork();
    ASSERT_GE(server, 0);
    if (server == 0) {
        core::serve_tcp_workers(rs, listen_fd, /*max_sessions=*/1);
        ::_exit(0);
    }
    ::close(listen_fd);
    const auto table =
        make_grid_set(rc)
            .set_backend(core::run_backend::remote_tcp)
            .set_endpoints({"127.0.0.1:" + std::to_string(port)})
            .run_all();
    int status = 0;
    ASSERT_EQ(::waitpid(server, &status, 0), server);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_EQ(csv_of(table), csv_of(make_grid_set(rc).set_workers(1).run_all()));
}

TEST(run_backend, remote_tcp_without_endpoints_is_an_error) {
    const auto rc = define_rc("tcp_noep");
    EXPECT_THROW((void)make_grid_set(rc)
                     .set_backend(core::run_backend::remote_tcp)
                     .run_all(),
                 sca::util::error);
}
