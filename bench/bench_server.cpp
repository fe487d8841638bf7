// Streaming-server costs: what does putting the simulator behind a socket
// add on top of running it in-process?
//
//   open_close_latency   - full session handshake round trip (connect,
//                          hello, open, close) against an idle server
//   stream_throughput/N  - N concurrent sessions streaming a 100k-sample
//                          TDF waveform each over loopback TCP; the
//                          counter is aggregate delivered samples/s
//   pacing_drift         - a 100 ms sim paced at 10x wall clock; the
//                          counter is the scheduler's worst observed lag
//                          behind the wall-clock schedule
//
// Sessions are opened via the race-free configure-then-start sequence
// (open_async, subscribe, await_opened, resume), so every run streams the
// complete waveform from t=0 and the throughput numbers compare apples to
// apples across session counts.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "server/server.hpp"
#include "tdf/connect.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace server = sca::server;
using namespace sca::de::literals;

namespace {

constexpr double k_pi = 3.141592653589793;

struct tone_source : tdf::module {
    tdf::out<double> out;
    explicit tone_source(const de::module_name& nm) : tdf::module(nm), out("out") {}
    void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
    void processing() override {
        out.write(std::sin(2.0 * k_pi * 5e3 * tdf_time().to_seconds()));
    }
};

struct null_sink : tdf::module {
    tdf::in<double> in;
    explicit null_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

/// 1 s at 10 us -> 100,001 samples per session.
constexpr double k_stream_samples = 100'001.0;

void define_scenarios() {
    static const bool once = [] {
        auto tdf_setup = [](core::testbench& tb, const core::params&) {
            auto& src = tb.make<tone_source>("src");
            auto& sink = tb.make<null_sink>("sink");
            auto& sig = connect(src.out, sink.in);
            tb.probe("out", sig);
            tb.set_sample_period(10_us);
        };
        core::scenario::define("bench_stream", core::params{},
                               [tdf_setup](core::testbench& tb, const core::params& p) {
                                   tdf_setup(tb, p);
                                   tb.set_stop_time(1000_ms);
                               });
        core::scenario::define("bench_tiny", core::params{},
                               [tdf_setup](core::testbench& tb, const core::params& p) {
                                   tdf_setup(tb, p);
                                   tb.set_stop_time(1_ms);
                               });
        core::scenario::define("bench_paced", core::params{},
                               [tdf_setup](core::testbench& tb, const core::params& p) {
                                   tdf_setup(tb, p);
                                   tb.set_stop_time(100_ms);
                               });
        return true;
    }();
    (void)once;
}

void open_close_latency(benchmark::State& state) {
    define_scenarios();
    server::sim_server srv;
    srv.start();
    for (auto _ : state) {
        auto cl = server::client::connect_tcp("127.0.0.1", srv.port());
        benchmark::DoNotOptimize(cl.hello());
        const auto info = cl.open("bench_tiny");
        benchmark::DoNotOptimize(info.session_id);
        cl.request_close();
        const auto close = cl.drain();
        benchmark::DoNotOptimize(close.reason);
    }
    srv.stop();
}

void stream_throughput(benchmark::State& state) {
    define_scenarios();
    const auto sessions = static_cast<std::size_t>(state.range(0));
    server::sim_server srv;
    srv.start();
    for (auto _ : state) {
        std::vector<std::thread> threads;
        threads.reserve(sessions);
        for (std::size_t i = 0; i < sessions; ++i) {
            threads.emplace_back([&srv] {
                auto cl = server::client::connect_tcp("127.0.0.1", srv.port());
                cl.open_async("bench_stream");
                cl.subscribe("out");
                (void)cl.await_opened();
                cl.resume();
                const auto close = cl.drain();
                benchmark::DoNotOptimize(close.samples_streamed);
            });
        }
        for (auto& t : threads) t.join();
    }
    srv.stop();
    state.counters["samples_per_sec"] =
        benchmark::Counter(k_stream_samples * static_cast<double>(sessions),
                           benchmark::Counter::kIsIterationInvariantRate);
}

void pacing_drift(benchmark::State& state) {
    define_scenarios();
    server::sim_server srv;
    srv.start();
    double max_drift_s = 0.0;
    for (auto _ : state) {
        auto cl = server::client::connect_tcp("127.0.0.1", srv.port());
        cl.open_async("bench_paced");
        cl.subscribe("out");
        cl.pace(10.0);  // 100 ms of sim in ~10 ms of wall clock
        (void)cl.await_opened();
        cl.resume();
        const auto close = cl.drain();
        max_drift_s = std::max(max_drift_s, close.pace_max_drift_s);
    }
    srv.stop();
    state.counters["max_drift_ms"] = max_drift_s * 1e3;
}

}  // namespace

// UseRealTime: the work happens on server and client threads, so the
// benchmark thread's CPU time is meaningless — wall clock is the metric.
BENCHMARK(open_close_latency)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(stream_throughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(pacing_drift)->Unit(benchmark::kMillisecond)->UseRealTime();

SCA_BENCH_MAIN(bench_server)
