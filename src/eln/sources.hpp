// Independent sources and their waveforms.
#ifndef SCA_ELN_SOURCES_HPP
#define SCA_ELN_SOURCES_HPP

#include <complex>
#include <functional>

#include "eln/network.hpp"
#include "eln/terminal.hpp"
#include "util/waveform.hpp"

namespace sca::eln {

/// Sources share the library-wide waveform descriptions.
using waveform = util::waveform;

/// Stamp a through-quantity source (current, force, torque, heat flow) that
/// follows `w` from `p` through the source to `n`: extracted from p's row,
/// injected into n's.
void stamp_waveform_flow(network& net, const node& p, const node& n, const waveform& w);

/// Independent voltage source with optional AC stimulus magnitude/phase for
/// small-signal analysis and optional noise voltage PSD.
class vsource : public component {
public:
    terminal p, n;

    vsource(const std::string& name, network& net, pin p, pin n, waveform w);

    void stamp(network& net) override;

    /// AC stimulus (magnitude, phase in degrees) for frequency-domain runs.
    void set_ac(double magnitude, double phase_deg = 0.0);

    /// Flat voltage-noise PSD (V^2/Hz), e.g. for opamp input-referred noise.
    void set_noise_psd(std::function<double(double)> psd);

private:
    waveform wave_;
    double ac_mag_ = 0.0;
    double ac_phase_deg_ = 0.0;
    std::function<double(double)> noise_psd_;
};

/// Independent current source (current flows p -> n inside the source, i.e.
/// it is injected into node n).
class isource : public component {
public:
    terminal p, n;

    isource(const std::string& name, network& net, pin p, pin n, waveform w);

    void stamp(network& net) override;
    void set_ac(double magnitude, double phase_deg = 0.0);
    void set_noise_psd(std::function<double(double)> psd);

private:
    waveform wave_;
    double ac_mag_ = 0.0;
    double ac_phase_deg_ = 0.0;
    std::function<double(double)> noise_psd_;
};

}  // namespace sca::eln

#endif  // SCA_ELN_SOURCES_HPP
