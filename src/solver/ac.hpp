// Small-signal frequency-domain (AC) analysis (paper §3: "SystemC-AMS will
// also have to support at least small-signal linear frequency-domain
// analysis ... the frequency-domain model can be derived from the
// time-domain description").
//
// The analyses take the equation system a continuous-time view exposes
// (`view.equations()`, or `tb.view().equations()` from a testbench).  One
// per-frequency loop serves AC and noise (solver/noise.hpp): it linearizes
// the system once, augmenting A with the Jacobian of g at the DC operating
// point when the system is nonlinear, then at each frequency f assembles
// A + j*2*pi*f*B, factors it at the first point and refactors numerically at
// every later one (the pattern does not depend on f).  Each call owns its
// matrices and factors, so concurrent sweeps over one system are safe.
#ifndef SCA_SOLVER_AC_HPP
#define SCA_SOLVER_AC_HPP

#include <complex>
#include <vector>

#include "solver/equation_system.hpp"

namespace sca::util {
class trace_file;
}

namespace sca::solver {

/// Frequency sweep specification.
struct sweep {
    enum class scale { linear, logarithmic };
    double f_start;
    double f_stop;
    std::size_t points;
    scale kind = scale::logarithmic;

    /// Materialize the frequency list.
    [[nodiscard]] std::vector<double> frequencies() const;
};

/// Magnitude in dB (20 log10 |h|).
[[nodiscard]] double magnitude_db(const std::complex<double>& h);

/// Phase in degrees.
[[nodiscard]] double phase_deg(const std::complex<double>& h);

struct ac_point {
    double frequency;
    std::complex<double> value;
    [[nodiscard]] double magnitude_db() const { return solver::magnitude_db(value); }
    [[nodiscard]] double phase_deg() const { return solver::phase_deg(value); }
};

/// Phasor response of unknown `output` (eln node.index(), lsf
/// signal.index(), or any branch row) to the system's AC sources over the
/// sweep.  A nonlinear system needs the DC operating point `dc` to linearize
/// around; a linear one ignores it.  Throws when `output` is not an unknown
/// of the system or a non-empty `dc` has another size than the system.
[[nodiscard]] std::vector<ac_point> ac_sweep(const equation_system& sys, std::size_t output,
                                             const sweep& sw,
                                             const std::vector<double>& dc = {});

/// Write a sweep into a trace file that has no channels yet: channels
/// magnitude_db and phase_deg, one row per point with the frequency on the
/// abscissa.
void write(const std::vector<ac_point>& points, util::trace_file& file);

}  // namespace sca::solver

#endif  // SCA_SOLVER_AC_HPP
