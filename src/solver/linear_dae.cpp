#include "solver/linear_dae.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

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

void linear_dae_solver::invalidate() { factored_ = false; }

namespace {

/// Copy `m`'s values into `out` in row-major order and return their
/// FNV-1a hash over the 64-bit patterns.
std::uint64_t flatten_values(const num::sparse_matrix_d& m, std::vector<double>& out) {
    out.clear();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t r = 0; r < m.size(); ++r) {
        for (const double v : m.row_values(r)) {
            out.push_back(v);
            hash = (hash ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
        }
    }
    return hash;
}

/// Where each entry of `src` lands in `dst`, whose pattern contains it.
void compile_positions(const num::sparse_matrix_d& dst, const num::sparse_matrix_d& src,
                       std::vector<num::sparse_matrix_d::position>& out) {
    out.clear();
    for (std::size_t r = 0; r < src.size(); ++r) {
        for (const std::size_t c : src.row_indices(r)) out.push_back(dst.position_of(r, c));
    }
}

/// dst += beta * src through compiled positions: the same additions, in the
/// same order, as sparse_matrix::add_scaled.
void scatter_scaled(num::sparse_matrix_d& dst, const num::sparse_matrix_d& src,
                    double beta, const std::vector<num::sparse_matrix_d::position>& map) {
    std::size_t at = 0;
    for (std::size_t r = 0; r < src.size(); ++r) {
        for (const double v : src.row_values(r)) dst.value_at(map[at++]) += beta * v;
    }
}

}  // namespace

void linear_dae_solver::ensure_factored(integration_method m) {
    const bool pattern_stale = !iter_mat_valid_ ||
                               stamp_generation_ != sys_->stamp_generation() ||
                               a_pattern_ != sys_->a().pattern_version() ||
                               b_pattern_ != sys_->b().pattern_version();
    const bool values_stale = values_generation_ != sys_->values_generation() ||
                              factored_method_ != m;
    if (factored_ && !pattern_stale && !values_stale) return;
    // M = c_a * A + B / h   (c_a = 1 for BE, 1/2 for trapezoidal)
    const double ca = m == integration_method::backward_euler ? 1.0 : 0.5;
    if (pattern_stale) {
        build_iteration_matrix(ca);
    } else {
        assemble_iteration_values(ca);
    }
    factor_sparse();
    factored_ = true;
    factored_method_ = m;
    stamp_generation_ = sys_->stamp_generation();
    values_generation_ = sys_->values_generation();
}

void linear_dae_solver::build_iteration_matrix(double ca) {
    // A fresh pattern version forces a full symbolic factorization.
    const auto& a = sys_->a();
    const auto& b = sys_->b();
    iter_mat_ = num::sparse_matrix_d(sys_->size());
    iter_mat_.add_scaled(a, ca);
    iter_mat_.add_scaled(b, 1.0 / h_);
    iter_mat_valid_ = true;
    compile_positions(iter_mat_, a, a_map_);
    compile_positions(iter_mat_, b, b_map_);
    a_pattern_ = a.pattern_version();
    b_pattern_ = b.pattern_version();
    cache_.clear();
}

void linear_dae_solver::assemble_iteration_values(double ca) {
    iter_mat_.zero_values();
    scatter_scaled(iter_mat_, sys_->a(), ca, a_map_);
    scatter_scaled(iter_mat_, sys_->b(), 1.0 / h_, b_map_);
}

void linear_dae_solver::factor_sparse() {
    // The key is the iteration matrix's exact bits: equal bits under the
    // same frozen pivot order give equal factors, so a hit re-activates the
    // factorization a refactor would compute.
    const std::uint64_t hash = flatten_values(iter_mat_, key_);
    for (auto& entry : cache_) {
        if (entry.hash == hash && entry.key.size() == key_.size() &&
            std::memcmp(entry.key.data(), key_.data(), key_.size() * sizeof(double)) == 0) {
            lu_.load_numeric(entry.factors);
            entry.last_use = ++cache_clock_;
            return;
        }
    }
    if (!lu_.refactor(iter_mat_)) {
        lu_.factor(iter_mat_);
        ++symbolic_factors_;
        reset_cache();
    }
    ++factors_;
    cache_active(hash);
}

void linear_dae_solver::cache_active(std::uint64_t hash) {
    if (cache_capacity_ == 0) return;
    const auto older = [](const cached_factors& x, const cached_factors& y) {
        return x.last_use < y.last_use;
    };
    cached_factors& slot = cache_.size() < cache_capacity_
                               ? cache_.emplace_back()
                               : *std::min_element(cache_.begin(), cache_.end(), older);
    slot.key = key_;
    slot.hash = hash;
    lu_.save_numeric(slot.factors);
    slot.last_use = ++cache_clock_;
}

void linear_dae_solver::reset_cache() {
    // Cached factors belong to the old pivot order.
    cache_.clear();
    const std::size_t bytes =
        sizeof(double) * (iter_mat_.nonzeros() + lu_.factor_nonzeros() + lu_.size());
    cache_capacity_ =
        std::min(factor_cache_entries, factor_cache_bytes / std::max<std::size_t>(bytes, 1));
}

void linear_dae_solver::step() {
    // All scratch vectors are members reused across steps: when the TDF
    // synchronization layer batches many firings per DE interaction, each
    // step is one rhs assembly, one sparse mat-vec, and one triangular
    // solve against the cached factorization — no allocations, no refactor
    // (ensure_factored is a generation check unless the system restamped).
    const integration_method m =
        be_next_ ? integration_method::backward_euler : method_;
    be_next_ = false;
    ensure_factored(m);
    const double t1 = t_ + h_;
    sys_->rhs_into(t1, q1_);
    sys_->b().multiply_into(x_, bx_);

    rhs_.resize(sys_->size());
    if (m == integration_method::backward_euler) {
        for (std::size_t i = 0; i < rhs_.size(); ++i) rhs_[i] = q1_[i] + bx_[i] / h_;
    } else {
        sys_->a().multiply_into(x_, ax_);
        for (std::size_t i = 0; i < rhs_.size(); ++i) {
            rhs_[i] = 0.5 * (q1_[i] + q_prev_[i]) + bx_[i] / h_ - 0.5 * ax_[i];
        }
    }
    lu_.solve_into(rhs_, x_next_);
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
    iter_mat_valid_ = false;
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
        reset_cache();
        cache_active(flatten_values(iter_mat_, key_));
        factored_ = true;
    }
    stamp_generation_ = stamp_gen;
    values_generation_ = values_gen;
    factors_ = factors;
    symbolic_factors_ = symbolic_factors;
    solves_ = solves;
}

}  // namespace sca::solver
