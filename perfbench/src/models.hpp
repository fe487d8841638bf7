// The three models the workloads run, each a registered core::scenario whose
// inputs arrive only through params, plus the analytic oracles that check
// their outputs.
//
//   receiver  (tdf_dataflow)  48 channels of sine -> sigma_delta_adc -> fir,
//                             summed in one static, pure TDF cluster
//   buck      (sweep_mp)      eln network + de_rswitch + lib::pwm
//   stream_rc (server_stream) sine -> eln::tdf_vsource -> RC low-pass
#ifndef PERFBENCH_MODELS_HPP
#define PERFBENCH_MODELS_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "harness.hpp"

namespace perfbench::models {

// ------------------------------------------------------------- receiver --

inline constexpr unsigned k_channels = 48;
inline constexpr unsigned k_osr = 32;
inline constexpr double k_source_step_s = 0.5e-6;  // 2 MHz oversampled rate
inline constexpr double k_output_rate = 1.0 / (k_source_step_s * k_osr);  // 62.5 kHz
/// Oracle DFT window (output samples) and the start-up it skips.
inline constexpr std::size_t k_window = 4096;
inline constexpr std::size_t k_settle = 256;
/// Output samples per main-loop slice.
inline constexpr std::size_t k_slice_outputs = 1024;
/// The "out" probe records every 64th output sample (one per batch of 64
/// cluster periods, so the probe never shortens a batch).
inline constexpr unsigned k_monitor_every = 64;

/// Registered once; stop time covers settle + one oracle window.
const sca::core::scenario& receiver();
/// Seeded channel tones: "bin<k>" (DFT bin of the window) and "amp<k>".
sca::core::params receiver_point(input_rng& rng);
/// Output samples captured by a built receiver bench (the first
/// k_settle + k_window of its run).
const std::vector<double>& receiver_capture(sca::core::testbench& tb);
/// Every output sample the bench's sink has consumed.
std::uint64_t receiver_outputs(sca::core::testbench& tb);
/// Amplitude oracle: each channel's tone through sinc3 decimation and the
/// FIR, measured by a single-bin DFT of the summed output.  Returns the
/// largest relative amplitude error over all channels.
double receiver_amplitude_error(const sca::core::params& p, const std::vector<double>& out);
inline constexpr double k_receiver_tolerance = 1e-2;

// ----------------------------------------------------------------- buck --

inline constexpr double k_buck_stop_s = 4e-3;
inline constexpr double k_buck_step_s = 1e-6;

const sca::core::scenario& buck();
/// Seeded load (ohm), duty and PWM period (us).
sca::core::params buck_point(input_rng& rng);

// ------------------------------------------------------------ stream_rc --

inline constexpr double k_stream_step_s = 1e-6;
inline constexpr double k_stream_stop_s = 20e-3;
/// Samples of one session's "vout" probe (t = 0 .. stop inclusive).
inline constexpr std::size_t k_stream_samples = 20001;

const sca::core::scenario& stream_rc();
/// Seeded tone period (samples) and RC corner (Hz).
sca::core::params stream_point(input_rng& rng);
/// Amplitude oracle: tone gain through the RC low-pass, |H| =
/// 1/sqrt(1 + (f/fc)^2), measured over whole tone periods after 5 ms of
/// settling.  Returns the relative amplitude error.
double stream_amplitude_error(const sca::core::params& p, const std::vector<double>& vout);
inline constexpr double k_stream_tolerance = 1e-2;

}  // namespace perfbench::models

#endif  // PERFBENCH_MODELS_HPP
