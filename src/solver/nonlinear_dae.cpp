#include "solver/nonlinear_dae.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/sparse.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::solver {

namespace {

constexpr int k_newton_max_iterations = 50;
constexpr double k_newton_abstol = 1e-10;
constexpr double k_newton_reltol = 1e-7;

}  // namespace

nonlinear_dae_solver::nonlinear_dae_solver(equation_system& sys, nonlinear_options opt)
    : sys_(&sys), opt_(opt), h_(opt.h_init) {
    util::require(opt.h_init > 0.0 && opt.h_min > 0.0 && opt.h_max >= opt.h_init,
                  "nonlinear_dae_solver", "inconsistent step-size options");
    x_.assign(sys.size(), 0.0);
}

void nonlinear_dae_solver::set_initial_state(std::vector<double> x0, double t0) {
    util::require(x0.size() == sys_->size(), "nonlinear_dae_solver",
                  "initial state dimension mismatch");
    x_ = std::move(x0);
    t_ = t0;
    have_prev_ = false;
    h_ = opt_.h_init;
}

bool nonlinear_dae_solver::try_step(double h) {
    // Backward Euler:  (A + B/h) x1 + g(x1) = q(t1) + (B/h) x0
    const double t1 = t_ + h;
    const std::vector<double> q1 = sys_->rhs(t1);
    const std::vector<double> bx0 = sys_->b().multiply(x_);

    std::vector<double> rhs_fixed(sys_->size());
    for (std::size_t i = 0; i < rhs_fixed.size(); ++i) rhs_fixed[i] = q1[i] + bx0[i] / h;

    // A full restamp may have moved the pattern: start the persistent
    // matrices over (their fresh pattern versions force one symbolic
    // factorization); otherwise only rewrite values in place.
    if (!mats_valid_ || stamp_generation_ != sys_->stamp_generation()) {
        iter_mat_ = num::sparse_matrix_d(sys_->size());
        newton_mat_ = num::sparse_matrix_d(sys_->size());
        mats_valid_ = true;
        stamp_generation_ = sys_->stamp_generation();
    } else {
        iter_mat_.zero_values();
    }
    num::sparse_matrix_d& m = iter_mat_;
    m.add_scaled(sys_->a(), 1.0);
    m.add_scaled(sys_->b(), 1.0 / h);

    // Newton iteration starting from the current state (or the predictor).
    x_candidate_ = x_;
    if (have_prev_ && h_prev_ > 0.0) {
        const double r = h / h_prev_;
        for (std::size_t i = 0; i < x_candidate_.size(); ++i) {
            x_candidate_[i] = x_[i] + r * (x_[i] - x_prev_[i]);
        }
    }

    std::vector<double> residual(sys_->size());
    std::vector<jacobian_entry> jac;

    auto eval_f = [&](const std::vector<double>& xi, bool want_jacobian) {
        std::vector<double> f = m.multiply(xi);
        residual.assign(sys_->size(), 0.0);
        if (want_jacobian) jac.clear();
        std::vector<jacobian_entry> scratch;
        sys_->eval_nonlinear(xi, residual, want_jacobian ? jac : scratch);
        for (std::size_t i = 0; i < f.size(); ++i) f[i] += residual[i] - rhs_fixed[i];
        return f;
    };

    std::vector<double> f = eval_f(x_candidate_, true);
    double fnorm = num::norm_inf(f);
    for (int it = 0; it < k_newton_max_iterations; ++it) {
        ++newton_iters_;
        // Rebuild the Jacobian values into the persistent matrix; entries a
        // model stops reporting stay as explicit zeros, so the pattern only
        // grows and the symbolic factorization can be reused.
        newton_mat_.zero_values();
        newton_mat_.add_scaled(m, 1.0);
        for (const auto& e : jac) newton_mat_.add(e.row, e.col, e.value);
        if (!newton_lu_.refactor(newton_mat_)) {
            try {
                newton_lu_.factor(newton_mat_);
            } catch (const util::error&) {
                return false;  // singular Jacobian at this step size
            }
            ++symbolic_factorizations_;
        }
        ++factorizations_;
        const std::vector<double> dx = newton_lu_.solve(f);

        double damping = 1.0;
        bool improved = false;
        for (int k = 0; k < 6; ++k) {
            std::vector<double> xn = x_candidate_;
            for (std::size_t i = 0; i < xn.size(); ++i) xn[i] -= damping * dx[i];
            std::vector<double> fn = eval_f(xn, true);
            const double fn_norm = num::norm_inf(fn);
            if (fn_norm <= fnorm || fn_norm < k_newton_abstol) {
                x_candidate_ = std::move(xn);
                f = std::move(fn);
                fnorm = fn_norm;
                improved = true;
                break;
            }
            damping *= 0.5;
        }
        if (!improved) return false;

        const double dx_norm = num::norm_inf(dx) * damping;
        const double x_norm = num::norm_inf(x_candidate_);
        if (dx_norm < k_newton_abstol + k_newton_reltol * x_norm) return true;
    }
    return false;
}

double nonlinear_dae_solver::lte_estimate(double h) const {
    // Error proxy: corrector minus linear predictor, halved (BE local error).
    // Without history the predictor is the frozen state, which overestimates
    // the error and keeps the first steps conservative.
    double worst = 0.0;
    for (std::size_t i = 0; i < x_.size(); ++i) {
        double pred = x_[i];
        if (have_prev_ && h_prev_ > 0.0) {
            pred = x_[i] + (h / h_prev_) * (x_[i] - x_prev_[i]);
        }
        const double err = 0.5 * std::abs(x_candidate_[i] - pred);
        const double scale = opt_.lte_abstol + opt_.lte_reltol * std::abs(x_candidate_[i]);
        worst = std::max(worst, err / scale);
    }
    return worst;
}

void nonlinear_dae_solver::advance_to(double t_end) {
    while (t_ < t_end - 1e-18) {
        double h = std::min(h_, t_end - t_);
        bool accepted = false;
        while (!accepted) {
            if (!try_step(h)) {
                ++rejected_;
                h *= 0.25;
                util::require(h >= opt_.h_min, "nonlinear_dae_solver",
                              "Newton failed to converge at the minimum step size");
                continue;
            }
            if (restart_) break;  // the step crosses the jump: no LTE check
            const double err = lte_estimate(h);
            if (err <= 1.0) {
                accepted = true;
                // Grow gently; the sqrt law matches the O(h^2) local error.
                const double grow = std::clamp(0.9 / std::sqrt(std::max(err, 1e-4)), 0.3, 2.0);
                h_ = std::clamp(h * grow, opt_.h_min, opt_.h_max);
            } else {
                ++rejected_;
                h = std::max(h * std::clamp(0.9 / std::sqrt(err), 0.1, 0.5), opt_.h_min);
                util::require(h > opt_.h_min * 1.0000001 || err <= 1.0,
                              "nonlinear_dae_solver",
                              "cannot meet the error tolerance at the minimum step size");
            }
        }
        x_prev_ = x_;
        h_prev_ = h;
        // A predictor through the step that crossed the jump would
        // extrapolate the jump itself.
        have_prev_ = !restart_;
        restart_ = false;
        x_ = x_candidate_;
        t_ += h;
        ++accepted_;
    }
}

// --------------------------------------------------------------- snapshot --

namespace {

void save_pattern(util::byte_writer& w, const num::sparse_matrix_d& m) {
    w.u64(m.size());
    for (std::size_t r = 0; r < m.size(); ++r) {
        const auto& idx = m.row_indices(r);
        w.u64(idx.size());
        for (std::size_t c : idx) w.u64(c);
    }
}

/// Rebuild a matrix with the saved sparsity pattern as explicit zeros — the
/// grown pattern history the Newton LU's frozen pivot order depends on.
num::sparse_matrix_d restore_pattern(util::byte_reader& r) {
    // Every row carries at least its u64 entry count, every entry a u64.
    const auto n = static_cast<std::size_t>(r.count64(8));
    num::sparse_matrix_d m(n);
    for (std::size_t row = 0; row < n; ++row) {
        const auto count = static_cast<std::size_t>(r.count64(8));
        for (std::size_t k = 0; k < count; ++k) {
            m.add(row, static_cast<std::size_t>(r.u64()), 0.0);
        }
    }
    return m;
}

}  // namespace

void nonlinear_dae_solver::save_state(util::byte_writer& w) const {
    w.f64(t_);
    w.f64(h_);
    w.f64(opt_.h_init);
    w.f64(opt_.h_max);
    w.f64(h_prev_);
    w.boolean(have_prev_);
    w.boolean(restart_);
    w.f64_vec(x_);
    w.f64_vec(x_prev_);
    w.u64(accepted_);
    w.u64(rejected_);
    w.u64(newton_iters_);
    w.u64(factorizations_);
    w.u64(symbolic_factorizations_);
    w.boolean(mats_valid_);
    w.u64(stamp_generation_);
    if (mats_valid_) {
        save_pattern(w, iter_mat_);
        save_pattern(w, newton_mat_);
    }
    const bool has_symbolic = newton_lu_.symbolic_valid();
    w.boolean(has_symbolic);
    if (has_symbolic) w.u64_vec(newton_lu_.export_symbolic());
}

void nonlinear_dae_solver::restore_state(util::byte_reader& r) {
    t_ = r.f64();
    h_ = r.f64();
    opt_.h_init = r.f64();
    opt_.h_max = r.f64();
    h_prev_ = r.f64();
    have_prev_ = r.boolean();
    restart_ = r.boolean();
    x_ = r.f64_vec();
    util::require(x_.size() == sys_->size(), "snapshot",
                  "nonlinear solver: state dimension differs from rebuilt system");
    x_prev_ = r.f64_vec();
    accepted_ = r.u64();
    rejected_ = r.u64();
    newton_iters_ = r.u64();
    factorizations_ = r.u64();
    symbolic_factorizations_ = r.u64();
    mats_valid_ = r.boolean();
    stamp_generation_ = r.u64();
    if (mats_valid_) {
        iter_mat_ = restore_pattern(r);
        newton_mat_ = restore_pattern(r);
        util::require(iter_mat_.size() == sys_->size() &&
                          newton_mat_.size() == sys_->size(),
                      "snapshot",
                      "nonlinear solver: matrix size differs from rebuilt system");
    }
    const bool has_symbolic = r.boolean();
    if (has_symbolic) {
        util::require(mats_valid_, "snapshot",
                      "nonlinear solver: symbolic analysis without matrices");
        util::require(newton_lu_.adopt_symbolic(r.u64_vec(), newton_mat_), "snapshot",
                      "nonlinear solver: Newton LU symbolic analysis does not fit "
                      "the rebuilt Jacobian pattern");
        // Values stay unpopulated: the next Newton iteration rewrites the
        // Jacobian from scratch and refactors under the adopted pivot order.
    }
}

}  // namespace sca::solver
