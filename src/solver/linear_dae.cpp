#include "solver/linear_dae.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::solver {

linear_dae_solver::linear_dae_solver(equation_system& sys, integration_method method,
                                     double h)
    : sys_(&sys), method_(method), h_(h) {
    util::require(h > 0.0, "linear_dae_solver", "timestep must be positive");
    util::require(sys.is_linear(), "linear_dae_solver",
                  "system has nonlinear elements; use nonlinear_dae_solver");
    x_.assign(sys.size(), 0.0);
    q_prev_.assign(sys.size(), 0.0);
}

void linear_dae_solver::set_initial_state(std::vector<double> x0, double t0) {
    util::require(x0.size() == sys_->size(), "linear_dae_solver",
                  "initial state dimension mismatch");
    x_ = std::move(x0);
    t_ = t0;
    q_prev_ = sys_->rhs(t0);
}

void linear_dae_solver::set_timestep(double h) {
    util::require(h > 0.0, "linear_dae_solver", "timestep must be positive");
    if (h != h_) {
        h_ = h;
        factored_ = false;
    }
}

void linear_dae_solver::fill_key(double ca, std::vector<double>& key) const {
    const auto slots = sys_->stamp_values();
    key.resize(2 + slots.size());
    key[0] = ca;
    key[1] = h_;
    std::copy(slots.begin(), slots.end(), key.begin() + 2);
}

bool linear_dae_solver::key_matches(const std::vector<double>& key, double ca) const {
    const auto same = [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
    };
    const auto slots = sys_->stamp_values();
    return key.size() == 2 + slots.size() && same(key[0], ca) && same(key[1], h_) &&
           std::equal(slots.begin(), slots.end(), key.begin() + 2, same);
}

void linear_dae_solver::revalidate(integration_method m) {
    const bool pattern_stale = stamp_generation_ != sys_->stamp_generation() ||
                               a_pattern_ != sys_->a().pattern_version() ||
                               b_pattern_ != sys_->b().pattern_version();
    // M = c_a * A + B / h   (c_a = 1 for BE, 1/2 for trapezoidal)
    const double ca = m == integration_method::backward_euler ? 1.0 : 0.5;
    if (pattern_stale) {
        build_iteration_matrix(ca);
        fill_key(ca, key_);
        analyze();
    } else if (!activate_cached(ca)) {
        stash_active();
        fill_key(ca, key_);
        assemble_iteration_values(ca);
        refactor();
    }
    factored_ = true;
    factored_method_ = m;
    stamp_generation_ = sys_->stamp_generation();
    values_generation_ = sys_->values_generation();
}

void linear_dae_solver::build_iteration_matrix(double ca) {
    // A fresh pattern version forces a full symbolic factorization.
    const auto& a = sys_->a();
    const auto& b = sys_->b();
    const std::size_t n = sys_->size();
    util::require(x_.size() == n && q_prev_.size() == n, "linear_dae_solver",
                  "state dimension differs from the system");
    iter_mat_ = num::sparse_matrix_d(n);
    iter_mat_.add_scaled(a, ca);
    iter_mat_.add_scaled(b, 1.0 / h_);
    const auto map_into = [&](const num::sparse_matrix_d& src,
                              std::vector<num::sparse_matrix_d::position>& map) {
        const auto ptr = src.row_pointers();
        const auto cols = src.columns();
        map.clear();
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t k = ptr[r]; k < ptr[r + 1]; ++k) {
                map.push_back(iter_mat_.position_of(r, cols[k]));
            }
        }
    };
    map_into(a, a_map_);
    map_into(b, b_map_);
    a_csr_ = {a.row_pointers().data(), a.columns().data(), a.values().data()};
    b_csr_ = {b.row_pointers().data(), b.columns().data(), b.values().data()};
    a_pattern_ = a.pattern_version();
    b_pattern_ = b.pattern_version();
    rhs_.resize(n);
    x_next_.resize(n);
}

void linear_dae_solver::assemble_iteration_values(double ca) {
    // The same additions, in the same order, as sparse_matrix::add_scaled
    // onto zeroed values.
    iter_mat_.zero_values();
    const auto m = iter_mat_.values();
    const auto a = sys_->a().values();
    const auto b = sys_->b().values();
    const double inv_h = 1.0 / h_;
    for (std::size_t k = 0; k < a.size(); ++k) m[a_map_[k]] += ca * a[k];
    for (std::size_t k = 0; k < b.size(); ++k) m[b_map_[k]] += inv_h * b[k];
}

bool linear_dae_solver::activate_cached(double ca) {
    // Every cached entry shares the LU's current analysis: a new one
    // empties the cache (analyze()).
    if (lu_.factored() && key_matches(key_, ca)) return true;
    for (auto& entry : cache_) {
        if (!key_matches(entry.key, ca)) continue;
        lu_.swap_numeric(entry.factors);
        entry.key.swap(key_);
        entry.last_use = ++cache_clock_;
        return true;
    }
    return false;
}

void linear_dae_solver::stash_active() {
    if (!lu_.factored() || cache_capacity_ < 2) return;
    const auto older = [](const cached_factors& x, const cached_factors& y) {
        return x.last_use < y.last_use;
    };
    cached_factors& slot = cache_.size() + 1 < cache_capacity_
                               ? cache_.emplace_back()
                               : *std::min_element(cache_.begin(), cache_.end(), older);
    lu_.swap_numeric(slot.factors);
    slot.key.swap(key_);
    slot.last_use = ++cache_clock_;
}

void linear_dae_solver::refactor() {
    if (lu_.refactor(iter_mat_)) {
        ++factors_;
        return;
    }
    ++refactor_fallbacks_;
    analyze();
}

void linear_dae_solver::analyze() {
    // Emptied first, so a singular matrix leaves no factors of the old
    // pivot order behind.
    cache_.clear();
    lu_.factor(iter_mat_);
    ++symbolic_factors_;
    ++factors_;
    size_cache();
}

void linear_dae_solver::size_cache() {
    const std::size_t bytes =
        sizeof(double) * (key_.size() + lu_.factor_nonzeros() + lu_.size());
    cache_capacity_ = std::min(factor_cache_entries, factor_cache_bytes / bytes);
}

void linear_dae_solver::solve_step(integration_method m) {
    // All scratch vectors are members reused across steps: when the TDF
    // synchronization layer batches many firings per DE interaction, each
    // step is one rhs assembly, one pass over the rows of A and B, and one
    // triangular solve against the active factorization — no allocations,
    // no refactor, and no look at the matrices' bookkeeping (step() has
    // checked that the CSR arrays taken at the last validation still hold).
    const double t1 = t_ + h_;
    sys_->rhs_into(t1, q1_);

    // Per row: B·x, then (trapezoidal) A·x, then the rhs — each product
    // summed in column order from zero, as sparse_matrix::multiply does.
    const std::size_t* b_ptr = b_csr_.ptr;
    const std::size_t* b_col = b_csr_.col;
    const double* b_val = b_csr_.val;
    const double* x = x_.data();
    const double* q1 = q1_.data();
    double* rhs = rhs_.data();
    const std::size_t n = x_.size();
    if (m == integration_method::backward_euler) {
        for (std::size_t i = 0; i < n; ++i) {
            double bx = 0.0;
            for (std::size_t k = b_ptr[i]; k < b_ptr[i + 1]; ++k) bx += b_val[k] * x[b_col[k]];
            rhs[i] = q1[i] + bx / h_;
        }
    } else {
        const std::size_t* a_ptr = a_csr_.ptr;
        const std::size_t* a_col = a_csr_.col;
        const double* a_val = a_csr_.val;
        const double* q0 = q_prev_.data();
        for (std::size_t i = 0; i < n; ++i) {
            double bx = 0.0;
            for (std::size_t k = b_ptr[i]; k < b_ptr[i + 1]; ++k) bx += b_val[k] * x[b_col[k]];
            double ax = 0.0;
            for (std::size_t k = a_ptr[i]; k < a_ptr[i + 1]; ++k) ax += a_val[k] * x[a_col[k]];
            rhs[i] = 0.5 * (q1[i] + q0[i]) + bx / h_ - 0.5 * ax;
        }
    }
    lu_.solve_unchecked(rhs, x_next_.data());
    x_.swap(x_next_);
    ++solves_;
    t_ = t1;
    q_prev_.swap(q1_);
}

void linear_dae_solver::advance_to(double t_end) {
    // Steps are counted, not accumulated in floating point, to avoid drift.
    const auto n = static_cast<long long>(std::llround((t_end - t_) / h_));
    for (long long i = 0; i < n; ++i) step();
}

// --------------------------------------------------------------- snapshot --

void linear_dae_solver::save_state(util::byte_writer& w) const {
    w.u8(static_cast<std::uint8_t>(method_));
    w.f64(h_);
    w.f64(t_);
    w.f64_vec(x_);
    w.f64_vec(q_prev_);
    w.boolean(be_next_);
    w.boolean(factored_);
    w.u8(static_cast<std::uint8_t>(factored_method_));
    w.u64(stamp_generation_);
    w.u64(values_generation_);
    w.u64(factors_);
    w.u64(symbolic_factors_);
    w.u64(solves_);
    const bool has_symbolic = lu_.symbolic_valid();
    w.boolean(has_symbolic);
    if (has_symbolic) w.u64_vec(lu_.export_symbolic());
}

void linear_dae_solver::restore_state(util::byte_reader& r) {
    method_ = static_cast<integration_method>(r.u8());
    h_ = r.f64();
    t_ = r.f64();
    x_ = r.f64_vec();
    util::require(x_.size() == sys_->size(), "snapshot",
                  "linear solver: state dimension differs from rebuilt system");
    q_prev_ = r.f64_vec();
    util::require(q_prev_.size() == sys_->size(), "snapshot",
                  "linear solver: rhs history dimension differs from rebuilt system");
    be_next_ = r.boolean();
    const bool was_factored = r.boolean();
    factored_method_ = static_cast<integration_method>(r.u8());
    const std::uint64_t stamp_gen = r.u64();
    const std::uint64_t values_gen = r.u64();
    const std::uint64_t factors = r.u64();
    const std::uint64_t symbolic_factors = r.u64();
    const std::uint64_t solves = r.u64();
    const bool has_symbolic = r.boolean();
    std::vector<std::uint64_t> symbolic;
    if (has_symbolic) symbolic = r.u64_vec();

    factored_ = false;
    a_pattern_ = b_pattern_ = 0;  // the next step rebuilds unless restored below
    if (was_factored) {
        // Rebuild the iteration matrix the saving process held: its values
        // follow from the (already restored) A/B values and the factored
        // method/timestep, so the refactor below replays the exporting
        // process's last numeric factorization bit for bit.
        build_iteration_matrix(
            factored_method_ == integration_method::backward_euler ? 1.0 : 0.5);
        util::require(has_symbolic, "snapshot",
                      "linear solver: snapshot lacks the LU symbolic analysis");
        util::require(lu_.adopt_symbolic(symbolic, iter_mat_), "snapshot",
                      "linear solver: LU symbolic analysis does not fit the "
                      "rebuilt iteration matrix");
        util::require(lu_.refactor(iter_mat_), "snapshot",
                      "linear solver: numeric refactorization under the "
                      "restored pivot order failed");
        fill_key(factored_method_ == integration_method::backward_euler ? 1.0 : 0.5, key_);
        cache_.clear();
        size_cache();
        factored_ = true;
    }
    stamp_generation_ = stamp_gen;
    values_generation_ = values_gen;
    factors_ = factors;
    symbolic_factors_ = symbolic_factors;
    solves_ = solves;
}

}  // namespace sca::solver
