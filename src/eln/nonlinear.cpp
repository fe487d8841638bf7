#include "eln/nonlinear.hpp"

#include <cmath>

#include "util/report.hpp"

namespace sca::eln {

namespace {

constexpr double k_thermal_voltage = 0.025852;  // kT/q at 300 K

/// Fetch the value of an unknown from the iterate (0 for ground).
double value_of(const std::vector<double>& x, std::size_t row) {
    return row == ground_row ? 0.0 : x[row];
}

/// Scatter a current contribution I flowing out of row_p into row_n.
void add_current(std::vector<double>& residual, std::size_t rp, std::size_t rn, double i) {
    if (rp != ground_row) residual[rp] += i;
    if (rn != ground_row) residual[rn] -= i;
}

/// Scatter a conductance di/dv between the (p,n) current and (cp,cn) control.
void add_transconductance(std::vector<solver::jacobian_entry>& jac, std::size_t rp,
                          std::size_t rn, std::size_t rcp, std::size_t rcn, double g) {
    if (rp != ground_row && rcp != ground_row) jac.push_back({rp, rcp, g});
    if (rp != ground_row && rcn != ground_row) jac.push_back({rp, rcn, -g});
    if (rn != ground_row && rcp != ground_row) jac.push_back({rn, rcp, -g});
    if (rn != ground_row && rcn != ground_row) jac.push_back({rn, rcn, g});
}

}  // namespace

// --------------------------------------------------------------------- diode

diode::diode(const std::string& name, network& net, pin anode, pin cathode,
             double saturation_current, double emission_coefficient)
    : component(name, net), a("a", *this, anode), c("c", *this, cathode),
      is_(saturation_current), n_(emission_coefficient) {
    util::require(saturation_current > 0.0, this->name(),
                  "saturation current must be positive");
    util::require(emission_coefficient > 0.0, this->name(),
                  "emission coefficient must be positive");
}

void diode::stamp(network& net) {
    const std::size_t ra = network::row_of(a.get());
    const std::size_t rc = network::row_of(c.get());
    const double is = is_;
    const double nvt = n_ * k_thermal_voltage;
    // Exponential limiting: above v_crit the exponential is continued
    // linearly, keeping Newton iterates finite.
    const double v_crit = 40.0 * nvt;
    net.equations().add_nonlinear(
        [ra, rc, is, nvt, v_crit](const std::vector<double>& x,
                                  std::vector<double>& residual,
                                  std::vector<solver::jacobian_entry>& jac) {
            const double vd = value_of(x, ra) - value_of(x, rc);
            double i = 0.0;
            double g = 0.0;
            if (vd <= v_crit) {
                const double e = std::exp(vd / nvt);
                i = is * (e - 1.0);
                g = is * e / nvt;
            } else {
                const double e = std::exp(v_crit / nvt);
                g = is * e / nvt;
                i = is * (e - 1.0) + g * (vd - v_crit);
            }
            add_current(residual, ra, rc, i);
            add_transconductance(jac, ra, rc, ra, rc, g);
        });
}

// ----------------------------------------------------------------- MOS common

namespace {

struct mos_eval {
    double id;     // drain current for vds >= 0
    double gm;     // d id / d vgs
    double gds;    // d id / d vds
};

mos_eval square_law(double vgs, double vds, double k, double vth, double lambda) {
    mos_eval e{0.0, 0.0, 0.0};
    const double vov = vgs - vth;
    if (vov <= 0.0) {
        // Subthreshold: tiny conductance keeps the Jacobian nonsingular.
        e.gds = 1e-12;
        e.id = 1e-12 * vds;
        return e;
    }
    if (vds < vov) {  // triode
        e.id = k * (vov * vds - 0.5 * vds * vds) * (1.0 + lambda * vds);
        e.gm = k * vds * (1.0 + lambda * vds);
        e.gds = k * (vov - vds) * (1.0 + lambda * vds) +
                k * (vov * vds - 0.5 * vds * vds) * lambda;
    } else {  // saturation
        e.id = 0.5 * k * vov * vov * (1.0 + lambda * vds);
        e.gm = k * vov * (1.0 + lambda * vds);
        e.gds = 0.5 * k * vov * vov * lambda;
    }
    e.gds += 1e-12;
    return e;
}

}  // namespace

// ----------------------------------------------------------------------- mos

mos::mos(const std::string& name, network& net, pin drain, pin gate, pin source, double k,
         double vth, double lambda, bool p_channel)
    : component(name, net), d("d", *this, drain), g("g", *this, gate),
      s("s", *this, source), k_(k), vth_(vth), lambda_(lambda), p_channel_(p_channel) {}

void mos::stamp(network& net) {
    const std::size_t rd = network::row_of(d.get());
    const std::size_t rg = network::row_of(g.get());
    const std::size_t rs = network::row_of(s.get());
    const double k = k_, vth = vth_, lambda = lambda_;
    const bool p = p_channel_;
    // The drain current leaves `from` and enters `to`: drain to source in
    // an NMOS, source to drain in a PMOS.
    const std::size_t from = p ? rs : rd;
    const std::size_t to = p ? rd : rs;
    net.equations().add_nonlinear(
        [rd, rg, rs, from, to, k, vth, lambda, p](const std::vector<double>& x,
                                                  std::vector<double>& residual,
                                                  std::vector<solver::jacobian_entry>& jac) {
            // v(a, b): the n-channel voltage from a to b, i.e. v_a - v_b, or
            // v_b - v_a with every node voltage negated in a PMOS.
            const auto v = [&x, p](std::size_t a, std::size_t b) {
                return p ? value_of(x, b) - value_of(x, a) : value_of(x, a) - value_of(x, b);
            };
            double vgs = v(rg, rs);
            double vds = v(rd, rs);
            bool reversed = false;
            std::size_t eff_d = rd, eff_s = rs;
            if (vds < 0.0) {  // symmetric device: swap drain and source
                reversed = true;
                std::swap(eff_d, eff_s);
                vgs = v(rg, eff_s);
                vds = -vds;
            }
            const mos_eval e = square_law(vgs, vds, k, vth, lambda);
            const double id = reversed ? -e.id : e.id;
            add_current(residual, from, to, id);
            // id depends on v(g), v(eff_d), v(eff_s):
            //   d id/d v_g = gm, d id/d v_d = gds, d id/d v_s = -(gm+gds),
            // each negated in a PMOS.
            const double sign = reversed ? -1.0 : 1.0;
            auto add = [&](std::size_t col, double g) {
                if (p) g = -g;
                if (col == ground_row || g == 0.0) return;
                if (from != ground_row) jac.push_back({from, col, sign * g});
                if (to != ground_row) jac.push_back({to, col, -sign * g});
            };
            add(rg, e.gm);
            add(eff_d, e.gds);
            add(eff_s, -(e.gm + e.gds));
        });
}

// ------------------------------------------------------------ nonlinear_vccs

nonlinear_vccs::nonlinear_vccs(const std::string& name, network& net, pin cp_pin,
                               pin cn_pin, pin p_pin, pin n_pin,
                               std::function<double(double)> f,
                               std::function<double(double)> dfdv)
    : component(name, net), cp("cp", *this, cp_pin), cn("cn", *this, cn_pin),
      p("p", *this, p_pin), n("n", *this, n_pin), f_(std::move(f)),
      dfdv_(std::move(dfdv)) {
    util::require(static_cast<bool>(f_) && static_cast<bool>(dfdv_), this->name(),
                  "model functions must not be null");
}

void nonlinear_vccs::stamp(network& net) {
    const std::size_t rp = network::row_of(p.get());
    const std::size_t rn = network::row_of(n.get());
    const std::size_t rcp = network::row_of(cp.get());
    const std::size_t rcn = network::row_of(cn.get());
    auto f = f_;
    auto dfdv = dfdv_;
    net.equations().add_nonlinear(
        [rp, rn, rcp, rcn, f, dfdv](const std::vector<double>& x,
                                    std::vector<double>& residual,
                                    std::vector<solver::jacobian_entry>& jac) {
            const double vc = value_of(x, rcp) - value_of(x, rcn);
            add_current(residual, rp, rn, f(vc));
            add_transconductance(jac, rp, rn, rcp, rcn, dfdv(vc));
        });
}

}  // namespace sca::eln
