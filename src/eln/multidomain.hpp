// Multi-domain conservative components (paper phase 3: "Support of
// conservative-law models ... enrichment of the mixed-signal library with
// conservative-law mixed-domain models").
//
// Mechanical and thermal elements map onto the same MNA core through the
// classical force-current (mobility) analogy:
//
//   domain        across          through        C-like     R-like    L-like
//   mech. trans.  velocity m/s    force N        mass       damper    spring
//   mech. rot.    ang.vel rad/s   torque N*m     inertia    damper    spring
//   thermal       temperature K   heat flow W    heat cap.  R_th      (none)
//
// Every component here takes its pins at construction (a node or a terminal
// of the enclosing subcircuit) and declares their nature: a node of another
// discipline is rejected as the pin binds, and a pin forwarded through a
// subcircuit terminal when elaboration resolves the chain.  dc_motor, the
// transducer, has electrical p/n and a rotational shaft.
//
// Outside this file only resistor, capacitor, inductor, ideal_opamp, vsource,
// isource and the a/b pins of rc_line and rlgc_line check a nature
// (electrical).  The controlled sources, converters, switches, gyrator,
// ideal_transformer, ammeter and the semiconductor devices declare none and
// accept a node of any discipline.
#ifndef SCA_ELN_MULTIDOMAIN_HPP
#define SCA_ELN_MULTIDOMAIN_HPP

#include "eln/network.hpp"
#include "eln/sources.hpp"
#include "eln/terminal.hpp"
#include "tdf/port.hpp"

namespace sca::eln {

// ------------------------------------------------------ translational domain

/// Point mass: F = m * dv/dt against the inertial reference (ground).
class mass : public component {
public:
    terminal p;

    mass(const std::string& name, network& net, pin n, double kilograms);
    void stamp(network& net) override;

private:
    double m_;
};

/// Viscous damper between two velocity nodes: F = d * (v_a - v_b).
class damper : public component {
public:
    terminal a, b;

    damper(const std::string& name, network& net, pin a, pin b, double n_s_per_m);
    void stamp(network& net) override;

private:
    double d_;
};

/// Ideal spring: F = k * integral(v_a - v_b) dt (owns a force unknown).
class spring : public component {
public:
    terminal a, b;

    spring(const std::string& name, network& net, pin a, pin b, double n_per_m);
    void stamp(network& net) override;

private:
    double k_;
};

/// External force applied between two velocity nodes (p -> n).
class force_source : public component {
public:
    terminal p, n;

    force_source(const std::string& name, network& net, pin p, pin n, waveform w);
    void stamp(network& net) override;

private:
    waveform wave_;
};

/// Position probe: integrates a node's velocity into an extra unknown and
/// exposes it as a TDF output sample stream.
class position_probe : public component {
public:
    terminal p;
    tdf::out<double> outp;

    position_probe(const std::string& name, network& net, pin n);

    void stamp(network& net) override;
    void write_outputs() override;

private:
    std::size_t row_ = 0;
};

// --------------------------------------------------------- rotational domain

/// Rotational inertia: T = J * dw/dt against the reference frame.
class inertia : public component {
public:
    terminal p;

    inertia(const std::string& name, network& net, pin n, double kg_m2);
    void stamp(network& net) override;

private:
    double j_;
};

/// Rotational damper (friction): T = d * (w_a - w_b).
class rotational_damper : public component {
public:
    terminal a, b;

    rotational_damper(const std::string& name, network& net, pin a, pin b,
                      double n_m_s_per_rad);
    void stamp(network& net) override;

private:
    double d_;
};

/// Torsion spring: T = k * integral(w_a - w_b) dt.
class torsion_spring : public component {
public:
    terminal a, b;

    torsion_spring(const std::string& name, network& net, pin a, pin b,
                   double n_m_per_rad);
    void stamp(network& net) override;

private:
    double k_;
};

/// External torque source (p -> n).
class torque_source : public component {
public:
    terminal p, n;

    torque_source(const std::string& name, network& net, pin p, pin n, waveform w);
    void stamp(network& net) override;

private:
    waveform wave_;
};

// ------------------------------------------------------------ thermal domain

/// Thermal capacitance: P = C * dT/dt against ambient (thermal ground).
class thermal_capacitance : public component {
public:
    terminal p;

    thermal_capacitance(const std::string& name, network& net, pin n, double j_per_k);
    void stamp(network& net) override;

private:
    double c_;
};

/// Thermal resistance: P = (T_a - T_b) / R_th.
class thermal_resistance : public component {
public:
    terminal a, b;

    thermal_resistance(const std::string& name, network& net, pin a, pin b,
                       double k_per_w);
    void stamp(network& net) override;

private:
    double r_;
};

/// Heat flow source (dissipation injected into a thermal node).
class heat_source : public component {
public:
    terminal p, n;

    heat_source(const std::string& name, network& net, pin p, pin n, waveform w);
    void stamp(network& net) override;

private:
    waveform wave_;
};

// ------------------------------------------------------------ electro-mech --

/// Permanent-magnet DC motor: couples the electrical armature circuit with a
/// rotational shaft node.  v = R i + L di/dt + K w,  T = K i.
class dc_motor : public component {
public:
    terminal p, n, shaft;

    dc_motor(const std::string& name, network& net, pin elec_p, pin elec_n, pin shaft,
             double resistance, double inductance, double k_torque);

    void stamp(network& net) override;

    /// Armature current unknown (probe via network::current(*this)).

private:
    double r_, l_, k_;
};

}  // namespace sca::eln

#endif  // SCA_ELN_MULTIDOMAIN_HPP
