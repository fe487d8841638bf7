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
#include "eln/terminal.hpp"
#include "kernel/signal.hpp"
#include "tdf/port.hpp"
#include "util/bytes.hpp"

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
    void read_tdf_inputs(network& net) override;

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
    void read_tdf_inputs(network& net) override;

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
    void write_tdf_outputs(network& net) override;
};

/// Current probe (0 V branch) writing the branch current to a TDF output.
class tdf_isink : public component {
public:
    tdf_isink(const std::string& name, network& net, pin a, pin b);

    terminal p, n;

    tdf::out<double> outp;

    void stamp(network& net) override;
    void write_tdf_outputs(network& net) override;
};

/// Voltage source controlled by a DE signal (sampled at each activation).
class de_vsource : public component {
public:
    de_vsource(const std::string& name, network& net, pin p, pin n);

    terminal p, n;

    de::in<double> inp;

    void stamp(network& net) override;
    void read_tdf_inputs(network& net) override;

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
    void read_tdf_inputs(network& net) override;

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
    void write_tdf_outputs(network& net) override;
};

/// Switch controlled by a DE boolean signal (state is sampled at TDF
/// activation boundaries — the synchronization quantization documented in
/// docs/architecture.md, "The batched-sync contract at converter ports").
/// Both states stamp the same conductance pattern through one
/// stamp slot, so a toggle is a values-only update: the dirty matrix entries
/// are rewritten in place, and the solver re-activates its cached
/// factorization of the new state, refactoring numerically (against its
/// cached symbolic analysis) only on the first visit — the hot path of
/// switching workloads.
class de_rswitch : public component {
public:
    de_rswitch(const std::string& name, network& net, pin a, pin b, double r_on = 1.0,
               double r_off = 1e9);

    terminal p, n;

    de::in<bool> ctrl;

    void stamp(network& net) override;
    stamp_change sample_inputs() override;

    [[nodiscard]] bool closed() const noexcept { return closed_; }

    // --- checkpoint/restore -------------------------------------------------
    // Switch position only, written directly so no value update is flagged
    // (the restored equation values already carry this position; see
    // eln::rswitch).  The next sample_inputs() then compares the DE control
    // against the true saved state, exactly as the uninterrupted run would.
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.boolean(closed_); }
    void restore_state(util::byte_reader& r) override { closed_ = r.boolean(); }

private:
    double r_on_, r_off_;
    bool closed_ = false;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

}  // namespace sca::eln

#endif  // SCA_ELN_CONVERTER_HPP
