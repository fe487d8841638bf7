// Linear network primitives (paper phase 1: "Linear network elements
// (electrical element library: R, L, C, sources)") plus the controlled
// sources and the ideal transformer needed for macromodeling (§3:
// "conservative systems may be modeled at system-level as linear network
// macromodels based on simple electrical R, L, C, and controled source
// primitives").
//
// Every component takes its pins at construction, each a network node or a
// terminal of the enclosing subcircuit (see eln/terminal.hpp):
//
//   eln::resistor r("r", net, vin, vout, 1e3);
//
// and exposes them as eln::terminal members (r.p, r.n).
#ifndef SCA_ELN_PRIMITIVES_HPP
#define SCA_ELN_PRIMITIVES_HPP

#include "eln/network.hpp"
#include "eln/terminal.hpp"
#include "util/bytes.hpp"

namespace sca::eln {

/// Resistor with thermal noise (4kT/R current PSD).
class resistor : public component {
public:
    terminal p, n;

    resistor(const std::string& name, network& net, pin a, pin b, double ohms);

    void stamp(network& net) override;

    /// Change the resistance; rewrites the conductance stamp slot in place
    /// (values-only: the solver refactors numerically, no symbolic pass).
    void set_value(double ohms);
    [[nodiscard]] double value() const noexcept { return ohms_; }

    /// Exclude this resistor from noise analysis (ideal element).
    void set_noisy(bool noisy) noexcept { noisy_ = noisy; }

    // Checkpoint/restore: the value, which set_value may change at run time
    // (the restored equation values already carry it).
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.f64(ohms_); }
    void restore_state(util::byte_reader& r) override { ohms_ = r.f64(); }

private:
    double ohms_;
    bool noisy_ = true;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// Capacitor; optional initial voltage taken into account by the DC solve
/// through a momentary equivalent source is not needed: the pseudo-transient
/// DC leaves isolated capacitor nodes at 0; use an initial-condition source
/// if a different start is required.
class capacitor : public component {
public:
    terminal p, n;

    capacitor(const std::string& name, network& net, pin a, pin b, double farads);

    void stamp(network& net) override;
    void set_value(double farads);
    [[nodiscard]] double value() const noexcept { return farads_; }

    // Checkpoint/restore: the value, which set_value may change at run time
    // (the restored equation values already carry it).
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.f64(farads_); }
    void restore_state(util::byte_reader& r) override { farads_ = r.f64(); }

private:
    double farads_;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// Inductor (owns a branch current unknown).
class inductor : public component {
public:
    terminal p, n;

    inductor(const std::string& name, network& net, pin a, pin b, double henries);

    void stamp(network& net) override;
    void set_value(double henries);
    [[nodiscard]] double value() const noexcept { return henries_; }

    // Checkpoint/restore: the value, which set_value may change at run time
    // (the restored equation values already carry it).
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.f64(henries_); }
    void restore_state(util::byte_reader& r) override { henries_ = r.f64(); }

private:
    double henries_;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// Voltage-controlled voltage source: v(p,n) = gain * v(cp,cn).
class vcvs : public component {
public:
    terminal cp, cn, p, n;

    vcvs(const std::string& name, network& net, pin cp, pin cn, pin p, pin n, double gain);
    void stamp(network& net) override;
    void set_gain(double gain);

    // Checkpoint/restore: the gain, which set_gain may change at run time.
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.f64(gain_); }
    void restore_state(util::byte_reader& r) override { gain_ = r.f64(); }

private:
    double gain_;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// Voltage-controlled current source: i(p->n) = gm * v(cp,cn).
class vccs : public component {
public:
    terminal cp, cn, p, n;

    vccs(const std::string& name, network& net, pin cp, pin cn, pin p, pin n, double gm);
    void stamp(network& net) override;
    void set_gm(double gm);

    // Checkpoint/restore: the transconductance, which set_gm may change at run time.
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.f64(gm_); }
    void restore_state(util::byte_reader& r) override { gm_ = r.f64(); }

private:
    double gm_;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// Current-controlled voltage source: v(p,n) = rm * i(control branch).
class ccvs : public component {
public:
    terminal p, n;

    ccvs(const std::string& name, network& net, const component& control, pin p, pin n,
         double rm);
    void stamp(network& net) override;

private:
    const component* control_;
    double rm_;
};

/// Current-controlled current source: i(p->n) = beta * i(control branch).
class cccs : public component {
public:
    terminal p, n;

    cccs(const std::string& name, network& net, const component& control, pin p, pin n,
         double beta);
    void stamp(network& net) override;

private:
    const component* control_;
    double beta_;
};

/// Ideal transformer with ratio = v1/v2.
class ideal_transformer : public component {
public:
    terminal p1, n1, p2, n2;

    ideal_transformer(const std::string& name, network& net, pin p1, pin n1, pin p2,
                      pin n2, double ratio);
    void stamp(network& net) override;

private:
    double ratio_;
};

/// Resistive switch: r_on when closed, r_off when open. Both states stamp
/// the same conductance pattern through one stamp slot, so a state change is
/// a values-only update: the solver re-activates its cached factorization
/// of the new state, or refactors numerically against its cached symbolic
/// analysis on a first visit, instead of rebuilding the world.
class rswitch : public component {
public:
    terminal p, n;

    rswitch(const std::string& name, network& net, pin a, pin b, double r_on = 1.0,
            double r_off = 1e9, bool closed = false);

    void stamp(network& net) override;

    void set_state(bool closed);
    [[nodiscard]] bool closed() const noexcept { return closed_; }

    // --- checkpoint/restore -------------------------------------------------
    // Only the switch position: writing the member directly (no set_state)
    // avoids flagging a value update — the restored equation values already
    // reflect this position, and a spurious discontinuity would force a
    // backward-Euler step the uninterrupted run never took.
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.boolean(closed_); }
    void restore_state(util::byte_reader& r) override { closed_ = r.boolean(); }

private:
    double r_on_, r_off_;
    bool closed_;
    solver::stamp_handle slot_ = solver::no_stamp_handle;
};

/// Ideal operational amplifier (nullor): forces v(inp) = v(inn) and supplies
/// whatever output current the constraint requires.  The classic MNA opamp
/// stamp used for system-level active-filter macromodels.
class ideal_opamp : public component {
public:
    terminal inp, inn, out;

    ideal_opamp(const std::string& name, network& net, pin inp, pin inn, pin out);
    void stamp(network& net) override;
};

/// Gyrator: i1 = g * v2, i2 = -g * v1 (port 1 = p1/n1, port 2 = p2/n2).
/// Turns a capacitor into a simulated inductor — the standard trick for
/// integrated filter macromodels.
class gyrator : public component {
public:
    terminal p1, n1, p2, n2;

    gyrator(const std::string& name, network& net, pin p1, pin n1, pin p2, pin n2,
            double g);
    void stamp(network& net) override;

private:
    double g_;
};

/// Zero-volt source used as a current probe (owns a branch unknown).
class ammeter : public component {
public:
    terminal p, n;

    ammeter(const std::string& name, network& net, pin a, pin b);
    void stamp(network& net) override;
};

}  // namespace sca::eln

#endif  // SCA_ELN_PRIMITIVES_HPP
