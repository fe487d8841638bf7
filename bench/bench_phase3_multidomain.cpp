// PHASE3: the paper's phase-3 capability list — specialized continuous-time
// MoCs for power electronics and mechanics, conservative-law multi-domain
// models, generic DE<->CT synchronization.
//
// Workloads: an electro-mechanical DC drive (electrical + rotational +
// thermal domains in one conservative network) and a PWM-driven power stage
// with DE-controlled switching.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "eln/converter.hpp"
#include "eln/multidomain.hpp"
#include "lib/pwm.hpp"
#include "util/object_bag.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

void dc_drive_three_domains(benchmark::State& state) {
    double speed = 0.0;
    double temperature = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        eln::network net("net");
        net.set_timestep(100.0, de::time_unit::us);
        auto gnd = net.ground();
        auto rgnd = net.ground(eln::nature::mechanical_rotational);
        auto tamb = net.ground(eln::nature::thermal);
        auto vp = net.create_node("vp");
        auto shaft = net.create_node("shaft", eln::nature::mechanical_rotational);
        auto tj = net.create_node("tj", eln::nature::thermal);

        eln::vsource vs("vs", net, vp, gnd, eln::waveform::dc(24.0));
        eln::dc_motor motor("motor", net, vp, gnd, shaft, 0.5, 1e-3, 0.05);
        eln::inertia j("j", net, shaft, 0.002);
        eln::rotational_damper fric("fric", net, shaft, rgnd, 2e-4);
        // Copper losses heat the winding: P = i^2 R approximated by a heat
        // source proportional to the (slowly varying) armature current via a
        // fixed operating-point estimate, plus the thermal RC.
        eln::thermal_resistance rth("rth", net, tj, tamb, 5.0);
        eln::thermal_capacitance cth("cth", net, tj, 10.0);
        eln::heat_source ploss("ploss", net, tamb, tj, eln::waveform::dc(8.0));

        sim.run(de::time::from_seconds(10.0));
        speed = net.voltage(shaft);
        temperature = net.voltage(tj);
    }
    state.counters["speed_rad_s"] = speed;
    state.counters["delta_T"] = temperature;
}

void pwm_buck_stage(benchmark::State& state) {
    // DE PWM drives an ELN switch into an LC filter: every PWM edge forces a
    // restamp + refactorization — the cost model for switched power
    // electronics (the dedicated-MoC motivation of [8]).
    double vout = 0.0;
    std::uint64_t factorizations = 0;
    for (auto _ : state) {
        de::simulation_context sim;
        sca::util::object_bag bag;
        de::signal<double> duty("duty", 0.5);
        de::signal<bool> gate("gate", false);
        lib::pwm pwm("pwm", 50_us);
        pwm.duty.bind(duty);
        pwm.out.bind(gate);

        eln::network net("net");
        net.set_timestep(5.0, de::time_unit::us);
        auto gnd = net.ground();
        auto vin = net.create_node("vin");
        auto sw_out = net.create_node("sw_out");
        auto out = net.create_node("out");
        bag.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::dc(12.0));
        auto& sw = bag.make<eln::de_rswitch>("sw", net, vin, sw_out, 0.1, 1e6);
        sw.ctrl.bind(gate);
        // Freewheeling path + LC output filter.
        bag.make<eln::resistor>("fw", net, sw_out, gnd, 10e3);
        bag.make<eln::inductor>("l", net, sw_out, out, 1e-3);
        bag.make<eln::capacitor>("c", net, out, gnd, 100e-6);
        bag.make<eln::resistor>("load", net, out, gnd, 10.0);

        sim.run(de::time::from_seconds(20e-3));
        vout = net.voltage(out);
        factorizations = net.factorizations();
    }
    state.counters["vout"] = vout;
    state.counters["factorizations"] = static_cast<double>(factorizations);
}

void generic_sync_de_to_mechanical(benchmark::State& state) {
    // A DE process commands force setpoints; the mechanical plant responds —
    // phase-3 "generic synchronization mechanism including software MoCs".
    double position = 0.0;
    for (auto _ : state) {
        de::simulation_context sim;
        sca::util::object_bag bag;
        de::signal<double> setpoint("setpoint", 0.0);

        eln::network net("net");
        net.set_timestep(1.0, de::time_unit::ms);
        auto mgnd = net.ground(eln::nature::mechanical_translational);
        auto v = net.create_node("v", eln::nature::mechanical_translational);
        bag.make<eln::mass>("m", net, v, 1.0);
        bag.make<eln::damper>("b", net, v, mgnd, 2.0);
        bag.make<eln::spring>("k", net, v, mgnd, 50.0);
        // Force follows the DE setpoint through a de-controlled source
        // mapped onto the mechanical discipline via a custom component.
        struct de_force : eln::component {
            de::in<double> inp;
            eln::node p, n;
            std::size_t slot_p = 0, slot_n = 0;
            de_force(const std::string& nm, eln::network& net_, eln::node p_, eln::node n_)
                : component(nm, net_), inp("inp"), p(p_), n(n_) {}
            void stamp(eln::network& net_) override {
                slot_p = net_.add_input(eln::network::row_of(p));
                slot_n = net_.add_input(eln::network::row_of(n));
            }
            void read_inputs() override {
                net().set_input(slot_p, -inp.read());
                net().set_input(slot_n, inp.read());
            }
        };
        auto& f = bag.make<de_force>("f", net, mgnd, v);
        f.inp.bind(setpoint);

        // Software-ish supervisor: steps the setpoint every 200 ms.
        auto& proc = sim.register_method("supervisor", [&] {
            setpoint.write(setpoint.read() + 10.0);
            sim.next_trigger(200_ms);
        });
        (void)proc;

        sim.run(de::time::from_seconds(2.0));
        position = net.voltage(v);
        benchmark::DoNotOptimize(position);
    }
    state.counters["velocity_end"] = position;
}

}  // namespace

BENCHMARK(dc_drive_three_domains)->Unit(benchmark::kMillisecond);
BENCHMARK(pwm_buck_stage)->Unit(benchmark::kMillisecond);
BENCHMARK(generic_sync_de_to_mechanical)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_phase3_multidomain)
