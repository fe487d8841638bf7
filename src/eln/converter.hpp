// Mixed-signal interface components: sources controlled from the TDF or DE
// worlds and probes feeding network quantities back to them (paper §3:
// conservative-law models couple to discrete-time models "by providing the
// appropriate interface models (mixed-signal or mixed-domain interfaces)").
//
// Like the primitives, converters take their network pins (p, n) at
// construction, each a node or a terminal of the enclosing subcircuit.
#ifndef SCA_ELN_CONVERTER_HPP
#define SCA_ELN_CONVERTER_HPP

#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/terminal.hpp"
#include "kernel/signal.hpp"
#include "tdf/port.hpp"

namespace sca::eln {

/// Voltage source whose value is the current TDF input sample.
class tdf_vsource : public component {
public:
    tdf_vsource(const std::string& name, network& net, pin p, pin n);

    terminal p, n;

    /// The TDF input port; bind it to a tdf::signal<double>.
    tdf::in<double> inp;

    /// Scale factor applied to the TDF sample (default 1.0).
    void set_scale(double scale) noexcept { scale_ = scale; }

    void stamp(network& net) override;
    void read_inputs() override;

private:
    double scale_ = 1.0;
    std::size_t slot_ = 0;
};

/// Current source whose value is the current TDF input sample (p -> n).
class tdf_isource : public component {
public:
    tdf_isource(const std::string& name, network& net, pin p, pin n);

    terminal p, n;

    tdf::in<double> inp;

    void set_scale(double scale) noexcept { scale_ = scale; }

    void stamp(network& net) override;
    void read_inputs() override;

private:
    double scale_ = 1.0;
    std::size_t slot_p_ = 0;
    std::size_t slot_n_ = 0;
};

/// Voltage probe writing v(p) - v(n) to a TDF output each step.
class tdf_vsink : public component {
public:
    tdf_vsink(const std::string& name, network& net, pin a, pin b);

    terminal p, n;

    tdf::out<double> outp;

    void stamp(network& net) override;
    void write_outputs() override;
};

/// Current probe (0 V branch) writing the branch current to a TDF output.
class tdf_isink : public component {
public:
    tdf_isink(const std::string& name, network& net, pin a, pin b);

    terminal p, n;

    tdf::out<double> outp;

    void stamp(network& net) override;
    void write_outputs() override;
};

/// Voltage source controlled by a DE signal (sampled at each activation).
class de_vsource : public component {
public:
    de_vsource(const std::string& name, network& net, pin p, pin n);

    terminal p, n;

    de::in<double> inp;

    void stamp(network& net) override;
    void read_inputs() override;

private:
    std::size_t slot_ = 0;
};

/// Current source controlled by a DE signal (sampled at each activation;
/// current flows p -> n inside the source).
class de_isource : public component {
public:
    de_isource(const std::string& name, network& net, pin p, pin n);

    terminal p, n;

    de::in<double> inp;

    void stamp(network& net) override;
    void read_inputs() override;

private:
    std::size_t slot_p_ = 0;
    std::size_t slot_n_ = 0;
};

/// Voltage probe writing into a DE signal at each activation.
class de_vsink : public component {
public:
    de_vsink(const std::string& name, network& net, pin a, pin b);

    terminal p, n;

    de::out<double> outp;

    void stamp(network&) override {}
    void write_outputs() override;
};

/// Switch controlled by a DE boolean signal: an rswitch whose state follows
/// `ctrl`, sampled at TDF activation boundaries (the synchronization
/// quantization documented in docs/architecture.md, "The batched-sync
/// contract at converter ports").  A toggle is rswitch's values-only slot
/// rewrite, the hot path of switching workloads.
class de_rswitch : public rswitch {
public:
    de_rswitch(const std::string& name, network& net, pin a, pin b, double r_on = 1.0,
               double r_off = 1e9);

    de::in<bool> ctrl;

private:
    void read_inputs() override { set_state(ctrl.read()); }
};

}  // namespace sca::eln

#endif  // SCA_ELN_CONVERTER_HPP
