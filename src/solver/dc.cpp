#include "solver/dc.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>

#include "numeric/sparse.hpp"
#include "util/report.hpp"

namespace sca::solver {

namespace {

constexpr int k_max_iterations = 100;  ///< Newton iteration limit
constexpr double k_abstol = 1e-12;
constexpr double k_reltol = 1e-9;
/// Pseudo-transient time constant used when A alone is singular (e.g.
/// floating capacitor nodes); larger = closer to true DC.
constexpr double k_pseudo_tau = 1e6;

/// Factor A, falling back to (A + B/tau) when A is singular.
num::sparse_lu_d factor_dc_matrix(const equation_system& sys) {
    try {
        return num::sparse_lu_d(sys.a());
    } catch (const util::error&) {
        util::report_warning("dc_solve",
                             "A is singular; using pseudo-transient regularization");
        num::sparse_matrix_d m(sys.size());
        m.add_scaled(sys.a(), 1.0);
        m.add_scaled(sys.b(), 1.0 / k_pseudo_tau);
        return num::sparse_lu_d(m);
    }
}

}  // namespace

std::vector<double> dc_solve(const equation_system& sys, double t0) {
    const std::vector<double> q = sys.rhs(t0);
    if (sys.size() == 0) return {};

    if (sys.is_linear()) {
        return factor_dc_matrix(sys).solve(q);
    }

    // Damped Newton from zero: F(x) = A x + g(x) - q.
    std::vector<double> x(sys.size(), 0.0);
    std::vector<double> residual(sys.size());
    std::vector<jacobian_entry> jac;

    auto eval_f = [&](const std::vector<double>& xi) {
        std::vector<double> f = sys.a().multiply(xi);
        residual.assign(sys.size(), 0.0);
        jac.clear();
        sys.eval_nonlinear(xi, residual, jac);
        for (std::size_t i = 0; i < f.size(); ++i) f[i] += residual[i] - q[i];
        return f;
    };

    std::vector<double> f = eval_f(x);
    double fnorm = num::norm_inf(f);
    for (int it = 0; it < k_max_iterations; ++it) {
        if (fnorm < k_abstol) return x;
        // J = A + dg/dx (+ B/tau regularization when A was singular: safe to
        // include always at DC since it only damps the iteration).
        num::sparse_matrix_d j(sys.size());
        j.add_scaled(sys.a(), 1.0);
        for (const auto& e : jac) j.add(e.row, e.col, e.value);
        num::sparse_lu_d jlu(j);
        const std::vector<double> dx = jlu.solve(f);

        // Damped update: halve until the residual shrinks (max 8 halvings).
        double damping = 1.0;
        for (int k = 0; k < 8; ++k) {
            std::vector<double> xn = x;
            for (std::size_t i = 0; i < xn.size(); ++i) xn[i] -= damping * dx[i];
            std::vector<double> fn = eval_f(xn);
            const double fn_norm = num::norm_inf(fn);
            if (fn_norm < fnorm || fn_norm < k_abstol) {
                x = std::move(xn);
                f = std::move(fn);
                fnorm = fn_norm;
                break;
            }
            damping *= 0.5;
            if (k == 7) {  // accept the smallest step to escape plateaus
                x = std::move(xn);
                f = std::move(fn);
                fnorm = fn_norm;
            }
        }
        const double dx_norm = num::norm_inf(dx) * damping;
        if (dx_norm < k_abstol + k_reltol * num::norm_inf(x) && fnorm < k_reltol) {
            return x;
        }
    }
    util::report_warning("dc_solve", "Newton did not fully converge; residual norm " +
                                         std::to_string(fnorm));
    return x;
}

void write_operating_point(const equation_system& sys, const std::vector<double>& x,
                           std::ostream& os) {
    util::require(x.size() == sys.size(), "write_operating_point",
                  "operating point size differs from the system");
    os << "DC operating point (" << x.size() << " unknowns)\n";
    for (std::size_t i = 0; i < x.size(); ++i) {
        os << "  " << std::left << std::setw(24) << sys.unknown_name(i) << std::right
           << std::setw(14) << std::setprecision(6) << std::scientific << x[i] << '\n';
    }
    os.flags(std::ios::fmtflags{});
}

}  // namespace sca::solver
