#include "solver/ac.hpp"

#include <cmath>
#include <numbers>
#include <string>
#include <string_view>

#include "numeric/sparse.hpp"
#include "solver/noise.hpp"
#include "util/report.hpp"
#include "util/trace.hpp"

namespace sca::solver {

std::vector<double> sweep::frequencies() const {
    util::require(points >= 1, "sweep", "at least one point required");
    util::require(f_start > 0.0 || kind == scale::linear, "sweep",
                  "logarithmic sweep requires a positive start frequency");
    std::vector<double> fs;
    fs.reserve(points);
    if (points == 1) {
        fs.push_back(f_start);
        return fs;
    }
    for (std::size_t i = 0; i < points; ++i) {
        const double u = static_cast<double>(i) / static_cast<double>(points - 1);
        if (kind == scale::logarithmic) {
            fs.push_back(f_start * std::pow(f_stop / f_start, u));
        } else {
            fs.push_back(f_start + (f_stop - f_start) * u);
        }
    }
    return fs;
}

namespace {

/// The per-frequency loop of AC and noise analysis.  Linearizes `sys` once
/// (A plus the Jacobian of g at `dc` when nonlinear), then at each sweep
/// frequency f assembles A + j*2*pi*f*B, factors it at the first point and
/// refactors numerically at every later one, and hands the factors to
/// `at_frequency(f, lu)`.
template <typename AtFrequency>
void factor_per_frequency(const equation_system& sys, std::size_t output, const sweep& sw,
                          const std::vector<double>& dc, std::string_view who,
                          AtFrequency&& at_frequency) {
    const std::size_t n = sys.size();
    util::require(output < n, who, "output index out of range");
    if (!dc.empty() && dc.size() != n) {
        util::report_fatal(who, "DC operating point has " + std::to_string(dc.size()) +
                                    " entries for a system of " + std::to_string(n) +
                                    " unknowns");
    }
    num::sparse_matrix_d a(n);
    a.add_scaled(sys.a(), 1.0);
    if (!sys.is_linear()) {
        util::require(!dc.empty(), who, "nonlinear system requires a DC operating point");
        std::vector<double> residual(n, 0.0);
        std::vector<jacobian_entry> jac;
        sys.eval_nonlinear(dc, residual, jac);
        for (const auto& e : jac) a.add(e.row, e.col, e.value);
    }

    // The pattern of A + j*omega*B does not depend on omega: after the first
    // point, rewrite the values and refactor against the cached symbolic
    // analysis.
    const auto a_ptr = a.row_pointers();
    const auto a_col = a.columns();
    const auto a_val = a.values();
    const auto b_ptr = sys.b().row_pointers();
    const auto b_col = sys.b().columns();
    const auto b_val = sys.b().values();
    num::sparse_matrix_z m(n);
    num::sparse_lu_z lu;
    bool first_point = true;
    for (double f : sw.frequencies()) {
        const double omega = 2.0 * std::numbers::pi * f;
        if (!first_point) m.zero_values();
        first_point = false;
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t k = a_ptr[r]; k < a_ptr[r + 1]; ++k) {
                m.add(r, a_col[k], std::complex<double>(a_val[k], 0.0));
            }
        }
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t k = b_ptr[r]; k < b_ptr[r + 1]; ++k) {
                m.add(r, b_col[k], std::complex<double>(0.0, omega * b_val[k]));
            }
        }
        if (!lu.refactor(m)) lu.factor(m);
        at_frequency(f, lu);
    }
}

}  // namespace

std::vector<ac_point> ac_sweep(const equation_system& sys, std::size_t output, const sweep& sw,
                               const std::vector<double>& dc) {
    std::vector<std::complex<double>> u(sys.size(), {0.0, 0.0});
    for (const auto& s : sys.ac_sources()) u[s.row] += s.amplitude;
    std::vector<std::complex<double>> x;
    std::vector<ac_point> points;
    factor_per_frequency(sys, output, sw, dc, "ac_sweep",
                         [&](double f, const num::sparse_lu_z& lu) {
                             lu.solve_into(u, x);
                             points.push_back({f, x[output]});
                         });
    return points;
}

noise_result noise_sweep(const equation_system& sys, std::size_t output, const sweep& sw,
                         const std::vector<double>& dc) {
    const auto& sources = sys.noise_sources();
    noise_result result;
    for (const auto& s : sources) result.source_names.push_back(s.name);

    // One forward/back substitution per source through each frequency's
    // factors.
    std::vector<std::complex<double>> u;
    std::vector<std::complex<double>> x;
    factor_per_frequency(
        sys, output, sw, dc, "noise_sweep", [&](double f, const num::sparse_lu_z& lu) {
            noise_point pt{f, 0.0, {}};
            pt.per_source.reserve(sources.size());
            for (const auto& s : sources) {
                u.assign(sys.size(), {0.0, 0.0});
                for (const auto& [row, weight] : s.injections) u[row] += weight;
                lu.solve_into(u, x);
                const double contribution = std::norm(x[output]) * s.psd(f);
                pt.per_source.push_back(contribution);
                pt.total_psd += contribution;
            }
            result.points.push_back(std::move(pt));
        });
    return result;
}

void write(const std::vector<ac_point>& points, util::trace_file& file) {
    // The trace interface is time-major; frequency plays the role of the
    // abscissa here.  The rows are replayed, so the channels have no live
    // value to probe.
    file.add_channel("magnitude_db", [] { return 0.0; });
    file.add_channel("phase_deg", [] { return 0.0; });
    for (const auto& p : points) {
        const double row[] = {p.magnitude_db(), p.phase_deg()};
        file.replay_row(p.frequency, row);
    }
}

double magnitude_db(const std::complex<double>& h) { return 20.0 * std::log10(std::abs(h)); }

double phase_deg(const std::complex<double>& h) {
    return std::arg(h) * 180.0 / std::numbers::pi;
}

}  // namespace sca::solver
