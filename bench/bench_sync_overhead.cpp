// CLAIM-SYNC (paper §3 + §4 [2]): the synchronization layer must avoid
// "needless executions" of analog blocks; crossing the DE<->CT boundary has
// a cost that pure dataflow avoids.
//
// The same RC network probed three ways:
//   pure_tdf   - samples stay in the statically scheduled cluster
//   tdf_to_de  - every sample is converted to a DE signal write (update
//                phase + delta notification + sensitive process)
//   de_control - additionally, a DE process writes back a control source
//                every period (full round trip each sample)
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "eln/converter.hpp"

namespace de = sca::de;
namespace tdf = sca::tdf;
namespace eln = sca::eln;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

constexpr de::time k_step = de::time::from_fs(1'000'000'000);  // 1 us
constexpr double k_sim_seconds = 10e-3;                        // 10k samples

void pure_tdf(benchmark::State& state) {
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(4, k_step);
        eln::tdf_vsink probe("probe", *ladder.net, ladder.out_node, ladder.net->ground());
        null_sink sink("sink");
        tdf::signal<double> s("s");
        probe.outp.bind(s);
        sink.in.bind(s);
        sim.run(de::time::from_seconds(k_sim_seconds));
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["samples_per_sec"] = benchmark::Counter(
        k_sim_seconds / k_step.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

void tdf_to_de(benchmark::State& state) {
    std::uint64_t de_activations = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(4, k_step);
        eln::de_vsink probe("probe", *ladder.net, ladder.out_node, ladder.net->ground());
        de::signal<double> wire("wire");
        probe.outp.bind(wire);
        // A DE watcher reacts to every converted sample.
        double acc = 0.0;
        auto& proc = sim.register_method("watch", [&] { acc += wire.read(); });
        proc.dont_initialize();
        proc.make_sensitive(wire.value_changed_event());
        sim.run(de::time::from_seconds(k_sim_seconds));
        de_activations = proc.activation_count();
        benchmark::DoNotOptimize(acc);
    }
    state.counters["de_activations"] = static_cast<double>(de_activations);
    state.counters["samples_per_sec"] = benchmark::Counter(
        k_sim_seconds / k_step.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

void de_control_roundtrip(benchmark::State& state) {
    std::uint64_t de_activations = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(4, k_step);
        eln::de_vsink probe("probe", *ladder.net, ladder.out_node, ladder.net->ground());
        // Feedback current injection: every converted sample produces a DE
        // reaction that perturbs the network on its next step (full round
        // trip across the boundary per sample).
        eln::de_isource ctl("ctl", *ladder.net, ladder.net->ground(), ladder.out_node);
        de::signal<double> wire("wire");
        de::signal<double> back("back");
        probe.outp.bind(wire);
        ctl.inp.bind(back);
        auto& proc = sim.register_method("controller", [&] {
            back.write(wire.read() * 1e-4);
        });
        proc.dont_initialize();
        proc.make_sensitive(wire.value_changed_event());
        sim.run(de::time::from_seconds(k_sim_seconds));
        de_activations = proc.activation_count();
        benchmark::DoNotOptimize(back.read());
    }
    state.counters["de_activations"] = static_cast<double>(de_activations);
    state.counters["samples_per_sec"] = benchmark::Counter(
        k_sim_seconds / k_step.to_seconds(), benchmark::Counter::kIsIterationInvariantRate);
}

/// Oversampling waste: the network run at 10x the rate the consumer needs,
/// the scenario Bonnerud et al. mitigate with a "virtual clock" [2].
void oversampled_cluster(benchmark::State& state) {
    const auto oversample = static_cast<std::int64_t>(state.range(0));
    for (auto _ : state) {
        de::simulation_context sim;
        rc_ladder ladder(4, de::time::from_fs(k_step.value_fs() / oversample));
        eln::tdf_vsink probe("probe", *ladder.net, ladder.out_node, ladder.net->ground());
        null_sink sink("sink");
        sink.in.set_rate(static_cast<unsigned>(oversample));  // consume per batch
        tdf::signal<double> s("s");
        probe.outp.bind(s);
        sink.in.bind(s);
        sim.run(de::time::from_seconds(k_sim_seconds));
        benchmark::DoNotOptimize(sink.last);
    }
    state.counters["network_steps"] = static_cast<double>(
        static_cast<double>(oversample) * k_sim_seconds / k_step.to_seconds());
}

}  // namespace

BENCHMARK(pure_tdf)->Unit(benchmark::kMillisecond);
BENCHMARK(tdf_to_de)->Unit(benchmark::kMillisecond);
BENCHMARK(de_control_roundtrip)->Unit(benchmark::kMillisecond);
BENCHMARK(oversampled_cluster)->Arg(1)->Arg(4)->Arg(10)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_sync_overhead)
