// Elementary signal-flow blocks (paper phase 1: gains, sums, integrators,
// differentiators, sources) and the TDF/DE converter blocks.
#ifndef SCA_LSF_PRIMITIVES_HPP
#define SCA_LSF_PRIMITIVES_HPP

#include "kernel/signal.hpp"
#include "lsf/node.hpp"
#include "tdf/port.hpp"
#include "util/waveform.hpp"

namespace sca::lsf {

using waveform = util::waveform;

/// Autonomous source: out = w(t).
class source : public block {
public:
    source(const std::string& name, system& sys, signal out, waveform w);
    void stamp(system& sys) override;

    /// Small-signal stimulus magnitude for AC analysis (default off).
    void set_ac(double magnitude, double phase_deg = 0.0) {
        ac_mag_ = magnitude;
        ac_phase_deg_ = phase_deg;
    }

private:
    signal out_;
    waveform wave_;
    double ac_mag_ = 0.0;
    double ac_phase_deg_ = 0.0;
};

/// out = k * in.
class gain : public block {
public:
    gain(const std::string& name, system& sys, signal in, signal out, double k);
    void stamp(system& sys) override;

    /// Change the gain; rewrites the stamp slot in place (values-only: the
    /// solver refactors numerically, no restamp or symbolic pass).
    void set_k(double k);

private:
    signal in_, out_;
    double k_;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// out = w1 * in1 + w2 * in2 (weights default to 1).
class add : public block {
public:
    add(const std::string& name, system& sys, signal in1, signal in2, signal out,
        double w1 = 1.0, double w2 = 1.0);
    void stamp(system& sys) override;

private:
    signal in1_, in2_, out_;
    double w1_, w2_;
};

/// out = in1 - in2.
class sub : public block {
public:
    sub(const std::string& name, system& sys, signal in1, signal in2, signal out);
    void stamp(system& sys) override;

private:
    signal in1_, in2_, out_;
};

/// d(out)/dt = k * in, out(0) = y0.
class integ : public block {
public:
    integ(const std::string& name, system& sys, signal in, signal out, double k = 1.0,
          double y0 = 0.0);
    void stamp(system& sys) override;

private:
    signal in_, out_;
    double k_;
    double y0_;
};

/// out = k * d(in)/dt (initialized to 0 at t=0).
class dot : public block {
public:
    dot(const std::string& name, system& sys, signal in, signal out, double k = 1.0);
    void stamp(system& sys) override;

private:
    signal in_, out_;
    double k_;
};

/// TDF -> LSF converter: out follows the TDF input sample.
class from_tdf : public block {
public:
    from_tdf(const std::string& name, system& sys, signal out);

    tdf::in<double> inp;

    void stamp(system& sys) override;
    void read_inputs() override;

private:
    signal out_;
    std::size_t slot_ = 0;
};

/// LSF -> TDF converter: writes the signal value each step.
class to_tdf : public block {
public:
    to_tdf(const std::string& name, system& sys, signal in);

    tdf::out<double> outp;

    void stamp(system&) override {}
    void write_outputs() override;

private:
    signal in_;
};

/// DE -> LSF converter: samples a DE signal at each activation.
class from_de : public block {
public:
    from_de(const std::string& name, system& sys, signal out);

    de::in<double> inp;

    void stamp(system& sys) override;
    void read_inputs() override;

private:
    signal out_;
    std::size_t slot_ = 0;
};

/// LSF -> DE converter: writes the signal value to a DE signal each step.
class to_de : public block {
public:
    to_de(const std::string& name, system& sys, signal in);

    de::out<double> outp;

    void stamp(system&) override {}
    void write_outputs() override;

private:
    signal in_;
};

}  // namespace sca::lsf

#endif  // SCA_LSF_PRIMITIVES_HPP
