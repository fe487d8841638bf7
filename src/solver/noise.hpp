// Small-signal noise analysis (paper phase 1: "Linear dynamic continuous-time
// model of computation, including transient, small-signal AC and noise
// simulation").
//
// Each registered noise source is injected separately; its transfer to the
// output is one forward/back substitution per source per frequency through
// the factors of the AC analysis's per-frequency loop (solver/ac.hpp), and
// the output power spectral density is the superposition of the magnitude-
// squared contributions (noise sources are uncorrelated).
#ifndef SCA_SOLVER_NOISE_HPP
#define SCA_SOLVER_NOISE_HPP

#include <string>
#include <vector>

#include "solver/ac.hpp"
#include "solver/equation_system.hpp"

namespace sca::solver {

/// Boltzmann constant (J/K), used by resistor thermal-noise models.
inline constexpr double k_boltzmann = 1.380649e-23;

struct noise_point {
    double frequency;
    double total_psd;                       // output PSD in V^2/Hz
    std::vector<double> per_source;         // contribution of each source
};

struct noise_result {
    std::vector<std::string> source_names;
    std::vector<noise_point> points;

    /// Total integrated output noise (V rms) over the analyzed band using
    /// trapezoidal integration of the PSD.
    [[nodiscard]] double integrated_rms() const;
};

/// Output-referred noise PSD at unknown `output` over the sweep, with the
/// same DC-point and index rules as ac_sweep().
[[nodiscard]] noise_result noise_sweep(const equation_system& sys, std::size_t output,
                                       const sweep& sw, const std::vector<double>& dc = {});

/// Write a noise result into a trace file that has no channels yet: channel
/// total_psd, then one per source, one row per point with the frequency on
/// the abscissa.
void write(const noise_result& result, util::trace_file& file);

}  // namespace sca::solver

#endif  // SCA_SOLVER_NOISE_HPP
