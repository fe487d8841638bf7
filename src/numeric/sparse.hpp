// Sparse linear algebra for MNA systems: triplet assembly with duplicate
// summing, compressed row storage, and a fill-in-aware sparse LU with
// threshold partial pivoting.  MNA matrices from ladder/mesh networks are
// extremely sparse; factor-once/solve-many with sparse storage is what makes
// the fixed-timestep linear solver cheap per step (paper §3, [6]).
//
// The factorization is split into a *symbolic* phase (pivot order, fill
// pattern, CSR factor layout — value-independent once the pivot sequence is
// chosen) and a *numeric* phase that recomputes factor values into the
// cached pattern.  Every sparse_matrix carries a pattern-version token that
// changes only on structural edits, so solvers can detect when the cached
// symbolic analysis is still valid and refactor values only — the hot path
// for switching workloads where a DE event changes stamp values but not the
// sparsity pattern.  Under one pattern version an entry's value also keeps
// its storage position, so values-only writers compile positions once and
// write through them without a search.
#ifndef SCA_NUMERIC_SPARSE_HPP
#define SCA_NUMERIC_SPARSE_HPP

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "numeric/dense.hpp"
#include "util/report.hpp"

namespace sca::num {

namespace detail {
/// Monotonic token source shared by all sparse matrices: two matrices (or
/// the same matrix before/after a structural edit) never share a version.
/// Atomic so that independent simulation contexts running on worker threads
/// (core/run_set) can edit matrices concurrently without racing the counter.
inline std::uint64_t next_pattern_version() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace detail

/// Sparse square matrix assembled from (row, col, value) triplets.
/// Duplicate entries are summed, matching the "stamping" style of MNA.
///
/// Storage is one CSR: row pointers plus contiguous column and value arrays,
/// columns ascending within a row.  An entry that is not yet in the pattern
/// is staged in its row and joins the arrays at the next read, which merges
/// every staged row in one O(nnz log nnz) pass: assembly never inserts into
/// the flat arrays.  Reads compress lazily, so the arrays are `mutable`; a
/// matrix under assembly must not be read from two threads.
template <typename T>
class sparse_matrix {
public:
    /// Where a stored value lives: its index into values().  Valid while
    /// pattern_version() is unchanged — a new entry moves the ones after it.
    using position = std::size_t;

    sparse_matrix() = default;
    explicit sparse_matrix(std::size_t n) { resize(n); }

    /// Grow to `n` unknowns, preserving existing entries (MNA views allocate
    /// branch unknowns lazily while stamping). Shrinking is not supported.
    void resize(std::size_t n) {
        util::require(n >= n_, "sparse_matrix", "resize cannot shrink the matrix");
        if (n == n_) return;
        n_ = n;
        row_ptr_.resize(n + 1, row_ptr_.back());
        if (!staged_.empty()) staged_.resize(n);
        pattern_version_ = detail::next_pattern_version();
    }

    void clear() {
        row_ptr_.assign(n_ + 1, 0);
        col_.clear();
        val_.clear();
        staged_ = {};
        staged_count_ = 0;
        pattern_version_ = detail::next_pattern_version();
    }

    /// Reset all values to zero keeping the sparsity pattern (and therefore
    /// the pattern version) intact — the values-only rebuild path.
    void zero_values() {
        compress();
        std::fill(val_.begin(), val_.end(), T{});
    }

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::size_t nonzeros() const noexcept { return col_.size() + staged_count_; }

    /// Token identifying the current sparsity pattern: changes whenever an
    /// entry is created, the matrix is cleared, or it is resized — never on
    /// value updates.  Unique across matrix instances.
    [[nodiscard]] std::uint64_t pattern_version() const noexcept {
        return pattern_version_;
    }

    /// Add `value` at (r, c); sums with any existing entry (MNA stamp).  A
    /// new entry keeps `value` as is, later ones add to it in call order.
    void add(std::size_t r, std::size_t c, T value) {
        util::require(r < n_ && c < n_, "sparse_matrix", "index out of range");
        if (T* v = find(r, c)) {
            *v += value;
            return;
        }
        if (staged_.empty()) staged_.resize(n_);
        staged_[r].push_back({c, value});
        ++staged_count_;
        pattern_version_ = detail::next_pattern_version();
    }

    /// Overwrite the value of an *existing* entry (values-only update; the
    /// pattern version is untouched). Errors if (r, c) is not in the pattern.
    void set_entry(std::size_t r, std::size_t c, T value) { values()[position_of(r, c)] = value; }

    /// Position of the existing entry (r, c). Errors if it is not in the
    /// pattern.
    [[nodiscard]] position position_of(std::size_t r, std::size_t c) const {
        util::require(r < n_ && c < n_, "sparse_matrix", "index out of range");
        compress();
        const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
        const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
        const auto it = std::lower_bound(first, last, c);
        util::require(it != last && *it == c, "sparse_matrix",
                      "entry is not in the sparsity pattern");
        return static_cast<position>(it - col_.begin());
    }

    [[nodiscard]] T get(std::size_t r, std::size_t c) const {
        util::require(r < n_ && c < n_, "sparse_matrix", "index out of range");
        const T* v = find(r, c);
        return v != nullptr ? *v : T{};
    }

    /// y = this * x
    [[nodiscard]] std::vector<T> multiply(const std::vector<T>& x) const {
        util::require(x.size() == n_, "sparse_matrix", "multiply: dimension mismatch");
        compress();
        std::vector<T> y(n_);
        for (std::size_t r = 0; r < n_; ++r) {
            T acc{};
            for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) acc += val_[k] * x[col_[k]];
            y[r] = acc;
        }
        return y;
    }

    /// Dense copy (tests, small systems, ablation benches).
    [[nodiscard]] dense_matrix<T> to_dense() const {
        compress();
        dense_matrix<T> d(n_, n_);
        for (std::size_t r = 0; r < n_; ++r) {
            for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) d(r, col_[k]) = val_[k];
        }
        return d;
    }

    /// this = this + other * beta (pattern union), adding row by row in
    /// column order.
    void add_scaled(const sparse_matrix<T>& other, T beta) {
        util::require(other.size() == n_, "sparse_matrix", "add_scaled: size mismatch");
        other.compress();
        for (std::size_t r = 0; r < n_; ++r) {
            for (std::size_t k = other.row_ptr_[r]; k < other.row_ptr_[r + 1]; ++k) {
                add(r, other.col_[k], beta * other.val_[k]);
            }
        }
    }

    /// The CSR arrays: row r's entries are [row_pointers()[r],
    /// row_pointers()[r + 1]) of columns() and values().
    [[nodiscard]] std::span<const std::size_t> row_pointers() const {
        compress();
        return row_ptr_;
    }
    [[nodiscard]] std::span<const std::size_t> columns() const {
        compress();
        return col_;
    }
    [[nodiscard]] std::span<const T> values() const {
        compress();
        return val_;
    }
    [[nodiscard]] std::span<T> values() {
        compress();
        return val_;
    }

    /// One row's columns (ascending) and values.
    [[nodiscard]] std::span<const std::size_t> row_indices(std::size_t r) const {
        const auto cols = columns();
        return cols.subspan(row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]);
    }
    [[nodiscard]] std::span<const T> row_values(std::size_t r) const {
        const auto vals = values();
        return vals.subspan(row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]);
    }

private:
    /// The stored value at (r, c), staged or compressed, or null.
    [[nodiscard]] T* find(std::size_t r, std::size_t c) const {
        const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
        const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
        const auto it = std::lower_bound(first, last, c);
        if (it != last && *it == c) return &val_[static_cast<std::size_t>(it - col_.begin())];
        if (staged_count_ != 0) {
            for (auto& e : staged_[r]) {
                if (e.first == c) return &e.second;
            }
        }
        return nullptr;
    }

    /// Merge every staged row into the CSR arrays.
    void compress() const {
        if (staged_count_ == 0) return;
        std::vector<std::size_t> ptr(n_ + 1, 0);
        std::vector<std::size_t> cols;
        std::vector<T> vals;
        cols.reserve(col_.size() + staged_count_);
        vals.reserve(col_.size() + staged_count_);
        for (std::size_t r = 0; r < n_; ++r) {
            auto& staged = staged_[r];
            std::sort(staged.begin(), staged.end(),
                      [](const auto& x, const auto& y) { return x.first < y.first; });
            std::size_t k = row_ptr_[r];
            auto s = staged.begin();
            while (k < row_ptr_[r + 1] || s != staged.end()) {
                if (s == staged.end() || (k < row_ptr_[r + 1] && col_[k] < s->first)) {
                    cols.push_back(col_[k]);
                    vals.push_back(val_[k++]);
                } else {
                    cols.push_back(s->first);
                    vals.push_back(s->second);
                    ++s;
                }
            }
            ptr[r + 1] = cols.size();
        }
        row_ptr_ = std::move(ptr);
        col_ = std::move(cols);
        val_ = std::move(vals);
        staged_ = {};
        staged_count_ = 0;
    }

    std::size_t n_ = 0;
    std::uint64_t pattern_version_ = detail::next_pattern_version();
    mutable std::vector<std::size_t> row_ptr_{0};
    mutable std::vector<std::size_t> col_;
    mutable std::vector<T> val_;
    // Entries created since the last compression: (column, value) per row,
    // in creation order.  Empty outside assembly.
    mutable std::vector<std::vector<std::pair<std::size_t, T>>> staged_;
    mutable std::size_t staged_count_ = 0;
};

/// The error sparse_lu::factor() throws on a singular matrix: `column()` is
/// the column (the unknown) for which elimination found no nonzero pivot,
/// kept as data so a caller can name it.
class singular_matrix : public util::error {
public:
    explicit singular_matrix(std::size_t column)
        : util::error("sparse_lu", "matrix is singular"), column_(column) {}
    [[nodiscard]] std::size_t column() const noexcept { return column_; }

private:
    std::size_t column_;
};

/// Sparse LU with threshold partial pivoting.
///
/// `factor()` is the full (symbolic + numeric) factorization: right-looking
/// row-based Gaussian elimination that chooses the pivot order, discovers
/// the fill pattern, and compresses the factors into CSR arrays.  The
/// symbolic outcome — pivot permutation, L/U patterns, CSR layout — is kept
/// and tagged with the source matrix's pattern version.
///
/// `refactor()` is the numeric-only phase: given a matrix with the *same*
/// pattern version, it replays the elimination left-looking into the cached
/// CSR layout with the frozen pivot order.  The arithmetic (operation order
/// included) is identical to `factor()`, so for a value-stable pivot order
/// the two produce bit-identical factors.  It refuses (returns false) when
/// the pattern changed, a frozen pivot degenerates, or the factors grew far
/// beyond the matrix (the frozen order lost accuracy); the caller then falls
/// back to `factor()`.
template <typename T>
class sparse_lu {
public:
    sparse_lu() = default;
    explicit sparse_lu(const sparse_matrix<T>& a) { factor(a); }

    /// Throws singular_matrix when a column has no nonzero pivot.
    void factor(const sparse_matrix<T>& a) {
        n_ = a.size();
        factored_ = false;
        symbolic_valid_ = false;
        // Working copy of the rows.  Exact numerical cancellations are kept
        // as explicit zeros so the resulting fill pattern depends only on
        // the structure and the pivot sequence — the property refactor()
        // relies on to reuse it for different values.
        std::vector<std::vector<std::size_t>> rows_idx(n_);
        std::vector<std::vector<T>> rows_val(n_);
        // Column -> rows index: per column, a list threaded through `links`
        // of the rows holding a structural entry in it, named by original
        // row (perm_[i] is the row at position i, pos_of its inverse).  A
        // row gains columns by fill-in and loses only the column it is
        // eliminated in, so column k's list is exact by the time column k
        // is reached.  Flat arrays: a small system pays a few allocations,
        // not one per column.
        constexpr std::size_t no_link = static_cast<std::size_t>(-1);
        struct link {
            std::size_t row;
            std::size_t next;
        };
        std::vector<std::size_t> col_head(n_, no_link);
        std::vector<link> links;
        links.reserve(a.nonzeros());
        const auto index_entry = [&](std::size_t c, std::size_t row) {
            links.push_back({row, col_head[c]});
            col_head[c] = links.size() - 1;
        };
        for (std::size_t r = 0; r < n_; ++r) {
            const auto idx = a.row_indices(r);
            const auto val = a.row_values(r);
            rows_idx[r].assign(idx.begin(), idx.end());
            rows_val[r].assign(val.begin(), val.end());
            for (std::size_t c : idx) index_entry(c, r);
        }
        perm_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
        std::vector<std::size_t> pos_of = perm_;
        std::vector<std::size_t> candidates;  // positions >= k with an entry in column k
        std::vector<std::vector<std::size_t>> lower_idx(n_);
        std::vector<std::vector<T>> lower_val(n_);

        std::vector<T> work(n_, T{});          // scatter buffer for row updates
        std::vector<std::size_t> work_touched;  // columns touched in `work`

        const auto entry_at = [&](std::size_t r, std::size_t c) -> T {
            const auto& idx = rows_idx[r];
            const auto it = std::lower_bound(idx.begin(), idx.end(), c);
            if (it != idx.end() && *it == c) {
                return rows_val[r][static_cast<std::size_t>(it - idx.begin())];
            }
            return T{};
        };

        for (std::size_t k = 0; k < n_; ++k) {
            // Only rows with a structural entry in column k can pivot or need
            // elimination; visit them in ascending position order, as a scan
            // of every row would.
            candidates.clear();
            for (std::size_t e = col_head[k]; e != no_link; e = links[e].next) {
                const std::size_t pos = pos_of[links[e].row];
                if (pos >= k) candidates.push_back(pos);
            }
            std::sort(candidates.begin(), candidates.end());

            // --- pivot selection: largest |a_ik| among rows i >= k, but accept
            // the diagonal row when it is within `k_pivot_threshold` of the
            // best (keeps permutations, and therefore fill, low).
            std::size_t pivot = n_;
            double best = 0.0;
            double diag_mag = 0.0;
            for (std::size_t r : candidates) {
                const T v = entry_at(r, k);
                const double mag = pivot_magnitude(v);
                if (r == k) diag_mag = mag;
                if (mag > best) {
                    best = mag;
                    pivot = r;
                }
            }
            if (best == 0.0) throw singular_matrix(k);
            if (diag_mag >= k_pivot_threshold * best) pivot = k;
            if (pivot != k) {
                std::swap(rows_idx[k], rows_idx[pivot]);
                std::swap(rows_val[k], rows_val[pivot]);
                std::swap(perm_[k], perm_[pivot]);
                pos_of[perm_[k]] = k;
                pos_of[perm_[pivot]] = pivot;
                // The already-accumulated L multipliers travel with the row.
                std::swap(lower_idx[k], lower_idx[pivot]);
                std::swap(lower_val[k], lower_val[pivot]);
            }

            const T pivot_value = entry_at(k, k);
            const T inv_piv = T(1) / pivot_value;

            // --- eliminate column k from all rows below.  Rows are touched
            // on *structural* presence of (r, k), not value, so the L
            // pattern is value-independent given the pivot sequence.  After
            // a swap the old row k sits at a candidate position too.
            for (std::size_t r : candidates) {
                if (r <= k) continue;
                const auto& ridx0 = rows_idx[r];
                const auto kit = std::lower_bound(ridx0.begin(), ridx0.end(), k);
                if (kit == ridx0.end() || *kit != k) continue;
                const T a_rk =
                    rows_val[r][static_cast<std::size_t>(kit - ridx0.begin())];
                const T mult = a_rk * inv_piv;
                lower_idx[r].push_back(k);
                lower_val[r].push_back(mult);

                // row_r -= mult * row_k  (columns > k), via scatter/gather.
                work_touched.clear();
                const auto& ridx = rows_idx[r];
                const auto& rval = rows_val[r];
                for (std::size_t j = 0; j < ridx.size(); ++j) {
                    if (ridx[j] > k) {
                        work[ridx[j]] = rval[j];
                        work_touched.push_back(ridx[j]);
                    }
                }
                const auto& kidx = rows_idx[k];
                const auto& kval = rows_val[k];
                for (std::size_t j = 0; j < kidx.size(); ++j) {
                    if (kidx[j] <= k) continue;
                    if (work[kidx[j]] == T{} &&
                        std::find(work_touched.begin(), work_touched.end(), kidx[j]) ==
                            work_touched.end()) {
                        work_touched.push_back(kidx[j]);
                        index_entry(kidx[j], perm_[r]);  // fill-in
                    }
                    work[kidx[j]] -= mult * kval[j];
                }
                std::sort(work_touched.begin(), work_touched.end());
                auto& new_idx = rows_idx[r];
                auto& new_val = rows_val[r];
                new_idx.clear();
                new_val.clear();
                for (std::size_t c : work_touched) {
                    new_idx.push_back(c);
                    new_val.push_back(work[c]);
                    work[c] = T{};
                }
            }
        }

        // --- compress the factors into CSR.  U row i holds columns >= i in
        // ascending order with the diagonal first; L row i holds columns
        // < i in ascending elimination order (unit diagonal implicit).
        u_ptr_.assign(n_ + 1, 0);
        l_ptr_.assign(n_ + 1, 0);
        for (std::size_t i = 0; i < n_; ++i) {
            u_ptr_[i + 1] = u_ptr_[i] + rows_idx[i].size();
            l_ptr_[i + 1] = l_ptr_[i] + lower_idx[i].size();
        }
        u_col_.resize(u_ptr_[n_]);
        l_col_.resize(l_ptr_[n_]);
        fit_numeric();
        for (std::size_t i = 0; i < n_; ++i) {
            std::copy(rows_idx[i].begin(), rows_idx[i].end(), u_col_.begin() + u_ptr_[i]);
            std::copy(rows_val[i].begin(), rows_val[i].end(), num_.u_val.begin() + u_ptr_[i]);
            std::copy(lower_idx[i].begin(), lower_idx[i].end(),
                      l_col_.begin() + l_ptr_[i]);
            std::copy(lower_val[i].begin(), lower_val[i].end(),
                      num_.l_val.begin() + l_ptr_[i]);
            util::require(u_ptr_[i] < u_ptr_[i + 1] && u_col_[u_ptr_[i]] == i,
                          "sparse_lu", "factor lost the diagonal");
            num_.inv_diag[i] = T(1) / num_.u_val[u_ptr_[i]];
        }
        pattern_version_ = a.pattern_version();
        symbolic_valid_ = true;
        factored_ = true;
        ++symbolic_count_;
        ++numeric_count_;
    }

    /// Numeric-only refactorization against the cached symbolic analysis.
    /// Returns false — leaving the factorization unusable until the next
    /// factor() — when no analysis is cached, `a`'s pattern version differs
    /// from the analyzed one, a pivot under the frozen order degenerates
    /// (zero, non-finite, or vanishing relative to its U row), or the
    /// largest U entry exceeds `k_refactor_max_growth` times the largest
    /// entry of `a`.
    bool refactor(const sparse_matrix<T>& a) {
        factored_ = false;
        if (!symbolic_valid_ || a.size() != n_ ||
            a.pattern_version() != pattern_version_) {
            return false;
        }
        const auto a_ptr = a.row_pointers();
        const auto a_col = a.columns();
        const auto a_val = a.values();
        fit_numeric();
        auto& u_val = num_.u_val;
        auto& l_val = num_.l_val;
        auto& inv_diag = num_.inv_diag;
        work_.assign(n_, T{});
        double a_max_sq = 0.0;  // squared: no square root per entry
        double u_max = 0.0;
        for (std::size_t i = 0; i < n_; ++i) {
            // Scatter the original (permuted) row, then eliminate with the
            // frozen multiplier pattern — same operations in the same order
            // as factor(), so values match it bit for bit.
            const std::size_t orig = perm_[i];
            for (std::size_t j = a_ptr[orig]; j < a_ptr[orig + 1]; ++j) {
                work_[a_col[j]] = a_val[j];
                a_max_sq = std::max(a_max_sq, std::norm(a_val[j]));
            }
            for (std::size_t jj = l_ptr_[i]; jj < l_ptr_[i + 1]; ++jj) {
                const std::size_t k = l_col_[jj];
                const T mult = work_[k] * inv_diag[k];
                l_val[jj] = mult;
                for (std::size_t uu = u_ptr_[k] + 1; uu < u_ptr_[k + 1]; ++uu) {
                    work_[u_col_[uu]] -= mult * u_val[uu];
                }
            }
            double row_max = 0.0;
            for (std::size_t uu = u_ptr_[i]; uu < u_ptr_[i + 1]; ++uu) {
                const T v = work_[u_col_[uu]];
                u_val[uu] = v;
                work_[u_col_[uu]] = T{};
                row_max = std::max(row_max, pivot_magnitude(v));
            }
            for (std::size_t jj = l_ptr_[i]; jj < l_ptr_[i + 1]; ++jj) {
                work_[l_col_[jj]] = T{};
            }
            const double diag_mag = pivot_magnitude(u_val[u_ptr_[i]]);
            if (!(diag_mag > 0.0) || !std::isfinite(row_max) ||
                diag_mag < k_refactor_stability * row_max) {
                return false;
            }
            inv_diag[i] = T(1) / u_val[u_ptr_[i]];
            u_max = std::max(u_max, row_max);
        }
        if (u_max > k_refactor_max_growth * std::sqrt(a_max_sq)) return false;
        factored_ = true;
        ++numeric_count_;
        return true;
    }

    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const {
        std::vector<T> x;
        solve_into(b, x);
        return x;
    }

    /// Solve into a caller-owned buffer (no allocation once x has capacity);
    /// b and x must be distinct vectors.
    void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
        util::require(factored_, "sparse_lu", "solve before factor");
        util::require(b.size() == n_, "sparse_lu", "solve: dimension mismatch");
        util::require(&b != &x, "sparse_lu", "solve: aliased output");
        x.resize(n_);
        solve_unchecked(b.data(), x.data());
    }

    /// The triangular solves without solve_into()'s checks, for a caller
    /// that keeps them itself: factored(), n = size() entries at b and at
    /// x, and b != x.
    void solve_unchecked(const T* b, T* x) const noexcept {
        const T* l_val = num_.l_val.data();
        const T* u_val = num_.u_val.data();
        // Forward: L y = P b  (L has unit diagonal, stored per-row).
        for (std::size_t i = 0; i < n_; ++i) {
            T acc = b[perm_[i]];
            for (std::size_t j = l_ptr_[i]; j < l_ptr_[i + 1]; ++j) {
                acc -= l_val[j] * x[l_col_[j]];
            }
            x[i] = acc;
        }
        // Backward: U x = y. Row i of U holds columns >= i, diagonal first.
        for (std::size_t ii = n_; ii-- > 0;) {
            T acc = x[ii];
            for (std::size_t j = u_ptr_[ii] + 1; j < u_ptr_[ii + 1]; ++j) {
                acc -= u_val[j] * x[u_col_[j]];
            }
            x[ii] = acc / u_val[u_ptr_[ii]];
        }
    }

    /// The numeric half of a factorization: the values that fill one
    /// symbolic analysis's layout.  `analysis` names that analysis (0: none),
    /// so the values cannot be re-activated under a different pivot order.
    struct numeric_factors {
        std::vector<T> u_val, l_val, inv_diag;
        std::uint64_t analysis = 0;
    };

    /// Exchange the active numeric factors with `f`; no value is copied.
    /// Afterwards `f` holds the factors that were active (tagged with no
    /// analysis if none were), and this factorization is usable iff the
    /// incoming ones belong to the current symbolic analysis.
    void swap_numeric(numeric_factors& f) noexcept {
        num_.analysis = factored_ ? symbolic_count_ : 0;
        std::swap(num_, f);
        factored_ = symbolic_valid_ && num_.analysis == symbolic_count_;
    }

    [[nodiscard]] bool factored() const noexcept { return factored_; }
    [[nodiscard]] std::size_t size() const noexcept { return n_; }

    /// True when a symbolic analysis (pivot order + fill pattern) is cached.
    [[nodiscard]] bool symbolic_valid() const noexcept { return symbolic_valid_; }

    /// Factorization counters: full symbolic analyses vs. numeric factor
    /// passes (every factor() counts once in each; refactor() only numeric).
    [[nodiscard]] std::uint64_t symbolic_count() const noexcept { return symbolic_count_; }
    [[nodiscard]] std::uint64_t numeric_count() const noexcept { return numeric_count_; }

    /// Number of stored entries in L + U (fill-in diagnostic).
    [[nodiscard]] std::size_t factor_nonzeros() const {
        return u_col_.size() + l_col_.size();
    }

    /// Serialize the cached symbolic analysis (pivot permutation + CSR
    /// factor patterns) as a flat word vector for checkpointing.  Pattern
    /// versions are process-local tokens and deliberately not included — a
    /// restoring process re-tags the analysis against its own rebuilt matrix
    /// via adopt_symbolic().
    [[nodiscard]] std::vector<std::uint64_t> export_symbolic() const {
        util::require(symbolic_valid_, "sparse_lu",
                      "export_symbolic before any factorization");
        std::vector<std::uint64_t> w;
        w.reserve(3 + 3 * n_ + u_col_.size() + l_col_.size());
        w.push_back(n_);
        w.push_back(u_col_.size());
        w.push_back(l_col_.size());
        for (std::size_t p : perm_) w.push_back(p);
        for (std::size_t i = 1; i <= n_; ++i) w.push_back(u_ptr_[i]);
        for (std::size_t i = 1; i <= n_; ++i) w.push_back(l_ptr_[i]);
        for (std::size_t c : u_col_) w.push_back(c);
        for (std::size_t c : l_col_) w.push_back(c);
        return w;
    }

    /// Install a symbolic analysis previously produced by export_symbolic(),
    /// re-tagged against matrix `a` (the restored process's rebuild of the
    /// matrix the analysis came from).  Validates internal consistency and
    /// that every structural entry of `a` falls inside the adopted fill
    /// pattern, so a later refactor(a) replays the frozen pivot order
    /// bit-identically to the exporting process.  Leaves the numeric factor
    /// invalid — call refactor(a) to populate values.  Returns false (state
    /// unchanged) on any inconsistency.
    bool adopt_symbolic(const std::vector<std::uint64_t>& w, const sparse_matrix<T>& a) {
        if (w.size() < 3) return false;
        const auto n = static_cast<std::size_t>(w[0]);
        const auto unz = static_cast<std::size_t>(w[1]);
        const auto lnz = static_cast<std::size_t>(w[2]);
        if (n != a.size()) return false;
        if (w.size() != 3 + 3 * n + unz + lnz) return false;
        std::size_t at = 3;
        std::vector<std::size_t> perm(n), u_ptr(n + 1, 0), l_ptr(n + 1, 0);
        std::vector<std::size_t> u_col(unz), l_col(lnz);
        std::vector<bool> seen(n, false);
        for (std::size_t i = 0; i < n; ++i) {
            perm[i] = static_cast<std::size_t>(w[at++]);
            if (perm[i] >= n || seen[perm[i]]) return false;
            seen[perm[i]] = true;
        }
        for (std::size_t i = 1; i <= n; ++i) {
            u_ptr[i] = static_cast<std::size_t>(w[at++]);
            if (u_ptr[i] < u_ptr[i - 1] || u_ptr[i] > unz) return false;
        }
        for (std::size_t i = 1; i <= n; ++i) {
            l_ptr[i] = static_cast<std::size_t>(w[at++]);
            if (l_ptr[i] < l_ptr[i - 1] || l_ptr[i] > lnz) return false;
        }
        if (u_ptr[n] != unz || l_ptr[n] != lnz) return false;
        for (std::size_t k = 0; k < unz; ++k) u_col[k] = static_cast<std::size_t>(w[at++]);
        for (std::size_t k = 0; k < lnz; ++k) l_col[k] = static_cast<std::size_t>(w[at++]);
        for (std::size_t i = 0; i < n; ++i) {
            // U row i: ascending columns >= i, diagonal first; L row i:
            // ascending columns < i (elimination order == column order).
            if (u_ptr[i] == u_ptr[i + 1] || u_col[u_ptr[i]] != i) return false;
            for (std::size_t k = u_ptr[i] + 1; k < u_ptr[i + 1]; ++k) {
                if (u_col[k] >= n || u_col[k] <= u_col[k - 1]) return false;
            }
            for (std::size_t k = l_ptr[i]; k < l_ptr[i + 1]; ++k) {
                if (l_col[k] >= i) return false;
                if (k > l_ptr[i] && l_col[k] <= l_col[k - 1]) return false;
            }
            // Every structural entry of the permuted a-row must land in this
            // row's L∪U pattern, or refactor()'s scatter would leak values.
            for (std::size_t c : a.row_indices(perm[i])) {
                const bool in_u =
                    std::binary_search(u_col.begin() + static_cast<std::ptrdiff_t>(u_ptr[i]),
                                       u_col.begin() + static_cast<std::ptrdiff_t>(u_ptr[i + 1]), c);
                const bool in_l =
                    std::binary_search(l_col.begin() + static_cast<std::ptrdiff_t>(l_ptr[i]),
                                       l_col.begin() + static_cast<std::ptrdiff_t>(l_ptr[i + 1]), c);
                if (!in_u && !in_l) return false;
            }
        }
        n_ = n;
        perm_ = std::move(perm);
        u_ptr_ = std::move(u_ptr);
        l_ptr_ = std::move(l_ptr);
        u_col_ = std::move(u_col);
        l_col_ = std::move(l_col);
        fit_numeric();
        pattern_version_ = a.pattern_version();
        symbolic_valid_ = true;
        factored_ = false;
        ++symbolic_count_;
        return true;
    }

private:
    /// factor() keeps the diagonal row as pivot while its magnitude is at
    /// least this fraction of the column's largest.
    static constexpr double k_pivot_threshold = 0.1;
    /// Refactor bails to a full factorization when a frozen pivot drops
    /// below this fraction of its U row's magnitude — catastrophic growth
    /// guard; legitimate value changes in MNA stamps stay far above it.
    static constexpr double k_refactor_stability = 1e-12;
    /// ... or when the largest U entry exceeds this multiple of the largest
    /// matrix entry (the growth factor): a frozen order that grows the
    /// factors this much has lost digits a fresh pivot choice keeps.
    static constexpr double k_refactor_max_growth = 1e8;

    /// Size the numeric arrays for the current layout (no allocation when
    /// they already fit).
    void fit_numeric() {
        num_.u_val.resize(u_col_.size());
        num_.l_val.resize(l_col_.size());
        num_.inv_diag.resize(n_);
    }

    std::size_t n_ = 0;
    bool factored_ = false;
    bool symbolic_valid_ = false;
    std::uint64_t pattern_version_ = 0;
    std::uint64_t symbolic_count_ = 0;
    std::uint64_t numeric_count_ = 0;
    std::vector<std::size_t> perm_;
    std::vector<std::size_t> u_ptr_, u_col_;  // CSR upper factor (diag first)
    std::vector<std::size_t> l_ptr_, l_col_;  // CSR unit-lower factor
    numeric_factors num_;                     // values of both, 1/diagonal
    std::vector<T> work_;  // refactor scatter buffer
};

using sparse_matrix_d = sparse_matrix<double>;
using sparse_matrix_z = sparse_matrix<std::complex<double>>;
using sparse_lu_d = sparse_lu<double>;
using sparse_lu_z = sparse_lu<std::complex<double>>;

}  // namespace sca::num

#endif  // SCA_NUMERIC_SPARSE_HPP
