// Allocation regression test for the DE kernel's per-instant path: once a
// model has run long enough for its buffers to reach their working size, a
// further slice of at least 5,000 simulated steps must not allocate per
// step.  The two models have the shape of the end-to-end benchmark's
// synchronizing ones, where every step is a DE kernel interaction.
//
// This binary replaces the global operator new with a counting one, so it is
// its own test executable (`ctest -L alloc`).  Every unaligned new/delete
// form is replaced, so allocation and release always pair through
// malloc/free, also under sanitizers that interpose their own operators.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/signal.hpp"
#include "lib/oscillator.hpp"
#include "lib/pwm.hpp"
#include "tdf/connect.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
    if (void* p = counted_malloc(n)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;

const de::time k_step(1.0, de::time_unit::us);
/// Warm-up: elaboration, the first factorization, and every kernel queue
/// and scratch vector reaching its working capacity.
const de::time k_warm_up(5.0, de::time_unit::ms);
/// The counted slice: 5,000 steps of 1 us.
const de::time k_slice(5.0, de::time_unit::ms);
/// What the slice may allocate: the trace's times and values vectors may
/// each double once (the slice at most doubles the row count), plus slack
/// for per-run() constants.  One allocation per step would be 5,000.
constexpr std::uint64_t k_max_allocations = 8;

/// sine -> eln::tdf_vsource -> RC low-pass with a probe on every 1 us step:
/// one DE probe instant and one cluster re-arm per step.
void build_stream_rc(core::testbench& tb) {
    auto& src = tb.make<lib::sine_source>("src", 1.0, 4e3);
    src.set_timestep(k_step);
    auto& net = tb.make<eln::network>("net");
    auto gnd = net.ground();
    auto vin = net.create_node("vin");
    auto vout = net.create_node("vout");
    auto& drive = tb.make<eln::tdf_vsource>("drive", net, vin, gnd);
    tb.make<eln::resistor>("r", net, vin, vout, 1e3);
    tb.make<eln::capacitor>("c", net, vout, gnd, 16e-9);
    connect(src.out, drive.inp);
    tb.probe("vout", [&net, vout] { return net.voltage(vout); });
    tb.set_sample_period(k_step);
}

/// PWM-switched buck converter: eln::de_rswitch driven by lib::pwm (a
/// values-only refactor on every edge), probed every 5 us.
void build_buck(core::testbench& tb) {
    auto& net = tb.make<eln::network>("net");
    net.set_timestep(k_step);
    auto gnd = net.ground();
    auto vsrc = net.create_node("vsrc");
    auto vin = net.create_node("vin");
    auto sw = net.create_node("sw");
    auto vout = net.create_node("vout");
    tb.make<eln::vsource>("vs", net, vsrc, gnd, eln::waveform::dc(24.0));
    tb.make<eln::resistor>("esr", net, vsrc, vin, 0.01);
    tb.make<eln::capacitor>("cin", net, vin, gnd, 10e-6);
    auto& hi = tb.make<eln::de_rswitch>("hi_side", net, vin, sw, 0.05, 1e6);
    tb.make<eln::resistor>("freewheel", net, sw, gnd, 0.5);
    tb.make<eln::inductor>("filter_l", net, sw, vout, 100e-6);
    tb.make<eln::capacitor>("filter_c", net, vout, gnd, 220e-6);
    tb.make<eln::resistor>("load", net, vout, gnd, 4.0);
    auto& duty = tb.make<de::signal<double>>("duty", 0.5);
    auto& gate = tb.make<de::signal<bool>>("gate", false);
    auto& pwm = tb.make<lib::pwm>("pwm", de::time(20.0, de::time_unit::us));
    pwm.duty.bind(duty);
    pwm.out.bind(gate);
    hi.ctrl.bind(gate);
    tb.probe("vout", [&net, vout] { return net.voltage(vout); });
    tb.set_sample_period(de::time(5.0, de::time_unit::us));
}

/// Allocations made by one k_slice run after a k_warm_up run.
std::uint64_t allocations_in_slice(core::testbench& tb) {
    const std::uint64_t start = g_allocations.load(std::memory_order_relaxed);
    tb.run(k_warm_up);
    const std::uint64_t warm = g_allocations.load(std::memory_order_relaxed);
    // Elaboration allocates; seeing none means the counting operator new
    // is not the one in use, and the figure below would prove nothing.
    EXPECT_GT(warm, start) << "the counting operator new is not in use";
    tb.run(k_slice);
    return g_allocations.load(std::memory_order_relaxed) - warm;
}

}  // namespace

TEST(kernel_alloc, stream_rc_steps_do_not_allocate) {
    core::testbench tb;
    build_stream_rc(tb);
    EXPECT_LE(allocations_in_slice(tb), k_max_allocations);
    EXPECT_EQ(tb.times().size(), 10001U);  // every step of both runs was probed
}

TEST(kernel_alloc, switched_buck_steps_do_not_allocate) {
    core::testbench tb;
    build_buck(tb);
    EXPECT_LE(allocations_in_slice(tb), k_max_allocations);
    EXPECT_EQ(tb.times().size(), 2001U);  // one probe row per 5 us
}
