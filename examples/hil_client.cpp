// Hardware-in-the-loop client: drive a live session of the streaming
// simulation server from outside the process boundary.
//
// The "plant" is a first-order lag tracking a pokeable setpoint — the
// classic stand-in for a thermal chamber or actuator under test.  The
// server side runs it as a registered scenario inside sim_server; the
// client side plays the role of the external test harness: it opens a
// session over loopback TCP, subscribes to the plant output, paces the
// kernel to wall-clock speed (1x — the defining constraint of HIL), and
// when it sees the plant settle it pokes the setpoint mid-run, exactly as
// a bench controller would twist a knob on live hardware.  The streamed
// waveform — both exponential approaches, with the step in between — is
// re-emitted to hil_client_trace.dat through the ordinary trace-file
// sink, so the session's remote capture plots like any offline run.
//
// Everything rides the SCA1 session protocol (docs/api.md): open/opened,
// subscribe, pace, param, run_state, sample batches, close.  Sessions
// open paused; the subscribe and pace frames precede resume() on the
// wire, so the stream is guaranteed to cover t=0.
//
// Build & run:  ./examples/hil_client
#include <cmath>
#include <cstdio>

#include "core/scenario.hpp"
#include "server/server.hpp"
#include "tdf/connect.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/trace.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace server = sca::server;
namespace wire = sca::core::wire;
using namespace sca::de::literals;

namespace {

/// First-order lag y' = (setpoint - y) / tau, discretized at the TDF
/// timestep: a plant that settles toward whatever the harness commands.
struct lag_plant : tdf::module {
    tdf::out<double> out;
    double setpoint;
    double tau_s;
    double y = 0.0;

    lag_plant(const de::module_name& nm, double sp, double tau)
        : tdf::module(nm), out("out"), setpoint(sp), tau_s(tau) {}
    void set_attributes() override { set_timestep(100.0, de::time_unit::us); }
    void processing() override {
        y += (setpoint - y) * (timestep().to_seconds() / tau_s);
        out.write(y);
    }
};

struct drain_sink : tdf::module {
    tdf::in<double> in;
    explicit drain_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

}  // namespace

int main() {
    // The scenario registry is the server's service catalog: anything
    // defined here is openable by name from any client.
    core::scenario::define(
        "hil_plant", core::params{{"setpoint", 1.0}, {"tau_ms", 5.0}},
        [](core::testbench& tb, const core::params& p) {
            auto& plant = tb.make<lag_plant>("plant", p.number("setpoint"),
                                             p.number("tau_ms") * 1e-3);
            auto& sink = tb.make<drain_sink>("sink");
            auto& sig = connect(plant.out, sink.in);
            tb.probe("y", sig);
            tb.set_sample_period(100_us);
            tb.set_stop_time(100_ms);
            tb.measure("final_setpoint", [&plant] { return plant.setpoint; });
            tb.on_param("setpoint", [&plant](double v) { plant.setpoint = v; });
        });

    server::sim_server srv;  // ephemeral TCP port on loopback
    srv.start();
    std::printf("hil_client: sim_server listening on 127.0.0.1:%u\n", srv.port());

    auto cl = server::client::connect_tcp("127.0.0.1", srv.port());
    std::printf("  session protocol v%u; catalog:", cl.hello());
    for (const auto& e : cl.catalog()) std::printf(" %s", e.name.c_str());
    std::printf("\n");

    // Configure-then-start: the session opens paused, so the subscribe and
    // the 1x wall-clock pacing are in force before the first kernel slice.
    cl.open_async("hil_plant");
    cl.subscribe("y");
    cl.pace(1.0);
    const wire::session_info info = cl.await_opened();
    std::printf("  opened session %llu: %.0f ms of sim at 1x wall clock\n",
                static_cast<unsigned long long>(info.session_id),
                info.stop_time_s * 1e3);
    cl.resume();

    // The HIL loop: watch the stream until the plant has settled at the
    // default setpoint, then command a step to 0.25 — mid-run, over the
    // wire, against a kernel that keeps real time.
    bool poked = false;
    wire::close_info close;
    for (;;) {
        const wire::frame f = cl.read_frame();
        cl.absorb(f);
        if (f.type == wire::msg_type::close) {
            close = wire::decode_close(f.payload.data(), f.payload.size());
            break;
        }
        if (poked || !cl.has_wave("y")) continue;
        const auto& w = cl.wave("y");
        if (!w.values.empty() && std::abs(w.values.back() - 1.0) < 0.02) {
            std::printf("  plant settled at %.3f (t = %.1f ms): poking setpoint -> 0.25\n",
                        w.values.back(), w.times.back() * 1e3);
            cl.poke("setpoint", 0.25);
            poked = true;
        }
    }
    const auto& w = cl.wave("y");
    std::printf("  run finished: %llu samples streamed, %llu dropped, drift %.2f ms\n",
                static_cast<unsigned long long>(close.samples_streamed),
                static_cast<unsigned long long>(close.samples_dropped),
                close.pace_max_drift_s * 1e3);

    // Re-emit the remotely captured waveform through the standard sink.
    sca::util::tabular_trace_file trace("hil_client_trace.dat");
    trace.add_channel("y", [] { return 0.0; });  // replay fills the values
    for (std::size_t i = 0; i < w.times.size(); ++i) {
        trace.replay_row(w.times[i], {&w.values[i], 1});
    }
    trace.close();
    std::printf("  streamed waveform written to hil_client_trace.dat\n");
    srv.stop();

    // Smoke checks (the example doubles as a ctest): the poke must have
    // landed and steered the plant to the new setpoint.
    const bool ok = poked && close.measurements.at("final_setpoint") == 0.25 &&
                    std::abs(w.values.back() - 0.25) < 0.02 &&
                    close.samples_dropped == 0;
    if (!ok) {
        std::printf("hil_client: FAILED (poked=%d, final=%.3f)\n", poked,
                    w.values.empty() ? -1.0 : w.values.back());
        return 1;
    }
    return 0;
}
