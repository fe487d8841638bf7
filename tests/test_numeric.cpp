// Dense/sparse linear algebra unit and property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "numeric/dense.hpp"
#include "numeric/sparse.hpp"
#include "util/report.hpp"

namespace num = sca::num;

TEST(dense_matrix, construction_and_indexing) {
    num::dense_matrix_d m(3, 4, 1.5);
    EXPECT_EQ(m.rows(), 3U);
    EXPECT_EQ(m.cols(), 4U);
    EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
    m(1, 2) = -2.0;
    EXPECT_DOUBLE_EQ(m(1, 2), -2.0);
}

TEST(dense_matrix, multiply) {
    num::dense_matrix_d m(2, 3);
    m(0, 0) = 1.0;
    m(0, 1) = 2.0;
    m(0, 2) = 3.0;
    m(1, 0) = 4.0;
    m(1, 1) = 5.0;
    m(1, 2) = 6.0;
    const auto y = m.multiply({1.0, 1.0, 1.0});
    ASSERT_EQ(y.size(), 2U);
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(dense_matrix, multiply_dimension_mismatch_throws) {
    num::dense_matrix_d m(2, 3);
    EXPECT_THROW((void)m.multiply({1.0, 2.0}), sca::util::error);
}

TEST(dense_lu, solves_small_system) {
    num::dense_matrix_d a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    num::dense_lu_d lu(a);
    const auto x = lu.solve({5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(dense_lu, pivoting_handles_zero_diagonal) {
    num::dense_matrix_d a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    num::dense_lu_d lu(a);
    const auto x = lu.solve({2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(dense_lu, singular_matrix_throws) {
    num::dense_matrix_d a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_THROW(num::dense_lu_d{a}, sca::util::error);
}

TEST(dense_lu, complex_system) {
    using cd = std::complex<double>;
    num::dense_matrix_z a(2, 2);
    a(0, 0) = cd(1.0, 1.0);
    a(0, 1) = cd(0.0, -1.0);
    a(1, 0) = cd(2.0, 0.0);
    a(1, 1) = cd(3.0, 1.0);
    num::dense_lu_z lu(a);
    const std::vector<cd> b{cd(1.0, 0.0), cd(0.0, 1.0)};
    const auto x = lu.solve(b);
    // Verify residual instead of hand-computing the inverse.
    const auto r = a.multiply(x);
    EXPECT_NEAR(std::abs(r[0] - b[0]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(r[1] - b[1]), 0.0, 1e-12);
}

TEST(sparse_matrix, stamp_accumulates_duplicates) {
    num::sparse_matrix_d m(3);
    m.add(1, 1, 2.0);
    m.add(1, 1, 3.0);
    EXPECT_DOUBLE_EQ(m.get(1, 1), 5.0);
    EXPECT_EQ(m.nonzeros(), 1U);
}

TEST(sparse_matrix, multiply_matches_dense) {
    num::sparse_matrix_d m(3);
    m.add(0, 0, 2.0);
    m.add(0, 2, -1.0);
    m.add(1, 1, 4.0);
    m.add(2, 0, 1.0);
    m.add(2, 2, 5.0);
    const std::vector<double> x{1.0, 2.0, 3.0};
    const auto ys = m.multiply(x);
    const auto yd = m.to_dense().multiply(x);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-14);
}

TEST(sparse_matrix, add_scaled_unions_patterns) {
    num::sparse_matrix_d a(2), b(2);
    a.add(0, 0, 1.0);
    b.add(1, 1, 2.0);
    b.add(0, 0, 3.0);
    a.add_scaled(b, 10.0);
    EXPECT_DOUBLE_EQ(a.get(0, 0), 31.0);
    EXPECT_DOUBLE_EQ(a.get(1, 1), 20.0);
}

TEST(sparse_lu, tridiagonal_system) {
    const std::size_t n = 50;
    num::sparse_matrix_d m(n);
    for (std::size_t i = 0; i < n; ++i) {
        m.add(i, i, 2.0);
        if (i > 0) m.add(i, i - 1, -1.0);
        if (i + 1 < n) m.add(i, i + 1, -1.0);
    }
    // Exact solution of -u'' = 0 with u(0)=0, u(n+1)=n+1 is linear.
    std::vector<double> b(n, 0.0);
    b[n - 1] = static_cast<double>(n + 1) - 0.0;  // boundary lift
    num::sparse_lu_d lu(m);
    const auto x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], static_cast<double>(i + 1), 1e-9);
    }
}

TEST(sparse_lu, requires_pivoting) {
    num::sparse_matrix_d m(2);
    m.add(0, 1, 1.0);
    m.add(1, 0, 1.0);
    num::sparse_lu_d lu(m);
    const auto x = lu.solve({5.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(sparse_lu, singular_throws) {
    num::sparse_matrix_d m(2);
    m.add(0, 0, 1.0);
    // Row 1 empty -> singular.
    EXPECT_THROW(num::sparse_lu_d{m}, sca::util::error);
}

TEST(sparse_lu, factor_nonzeros_reports_fill) {
    num::sparse_matrix_d m(3);
    for (std::size_t i = 0; i < 3; ++i) m.add(i, i, 1.0);
    num::sparse_lu_d lu(m);
    EXPECT_GE(lu.factor_nonzeros(), 3U);
}

// --- symbolic/numeric split ---

TEST(sparse_matrix, pattern_version_tracks_structure_not_values) {
    num::sparse_matrix_d m(3);
    const auto v0 = m.pattern_version();
    m.add(0, 0, 1.0);
    const auto v1 = m.pattern_version();
    EXPECT_NE(v0, v1);
    m.add(0, 0, 2.0);  // duplicate sum: no structural change
    EXPECT_EQ(m.pattern_version(), v1);
    m.set_entry(0, 0, 5.0);  // value rewrite: no structural change
    EXPECT_EQ(m.pattern_version(), v1);
    EXPECT_DOUBLE_EQ(m.get(0, 0), 5.0);
    m.zero_values();
    EXPECT_EQ(m.pattern_version(), v1);
    EXPECT_DOUBLE_EQ(m.get(0, 0), 0.0);
    m.add(1, 2, 1.0);  // new entry: structural change
    EXPECT_NE(m.pattern_version(), v1);
}

TEST(sparse_matrix, duplicates_sum_in_stamping_order_across_reads) {
    // 1e16 + 1 rounds back to 1e16, so the order of the three adds decides
    // the value: ((1e16 + 1) - 1e16) = 0, while any other order gives 1.
    // Reads between the adds merge the staged entries into the CSR arrays;
    // the sum must not care where the entry was stored.
    for (int read_after = 0; read_after < 4; ++read_after) {
        num::sparse_matrix_d m(3);
        m.add(2, 2, 7.0);
        const double terms[] = {1e16, 1.0, -1e16};
        for (int k = 0; k < 3; ++k) {
            if (k == read_after) (void)m.row_indices(1);
            m.add(1, 1, terms[k]);
        }
        m.add(1, 0, 3.0);  // staged before the existing (1, 1)
        EXPECT_EQ(m.get(1, 1), 0.0) << "read after " << read_after << " adds";
        const auto cols = m.row_indices(1);
        ASSERT_EQ(cols.size(), 2U);
        EXPECT_EQ(cols[0], 0U);
        EXPECT_EQ(cols[1], 1U);
        EXPECT_EQ(m.row_values(1)[0], 3.0);
        EXPECT_EQ(m.nonzeros(), 3U);
        const auto ptr = m.row_pointers();
        EXPECT_EQ(std::vector<std::size_t>(ptr.begin(), ptr.end()),
                  (std::vector<std::size_t>{0, 0, 2, 3}));
        EXPECT_EQ(m.values()[m.position_of(2, 2)], 7.0);
    }
}

TEST(sparse_matrix, set_entry_outside_pattern_throws) {
    num::sparse_matrix_d m(2);
    m.add(0, 0, 1.0);
    EXPECT_THROW(m.set_entry(0, 1, 2.0), sca::util::error);
}

TEST(sparse_lu, refactor_matches_full_factor_bit_for_bit) {
    // MNA-shaped system with a voltage-source style zero diagonal (forces a
    // pivot swap) and a conductance whose value will change.
    auto build = [](double g) {
        num::sparse_matrix_d m(4);
        m.add(0, 0, g + 0.1);
        m.add(0, 1, -g);
        m.add(1, 0, -g);
        m.add(1, 1, g + 0.5);
        m.add(1, 3, 1.0);  // branch current into KCL
        m.add(3, 1, 1.0);  // branch voltage constraint
        m.add(2, 2, 2.0);
        m.add(2, 1, -0.25);
        return m;
    };
    num::sparse_matrix_d m = build(1.0);
    num::sparse_lu_d lu(m);
    EXPECT_EQ(lu.symbolic_count(), 1U);
    EXPECT_EQ(lu.numeric_count(), 1U);

    // Values-only change in place, numeric refactor.
    m.zero_values();
    m.add_scaled(build(3.5), 1.0);
    ASSERT_TRUE(lu.refactor(m));
    EXPECT_EQ(lu.symbolic_count(), 1U);
    EXPECT_EQ(lu.numeric_count(), 2U);
    const std::vector<double> b{1.0, -2.0, 0.5, 0.25};
    const auto x_re = lu.solve(b);

    // Reference: full factorization of the same values from scratch.
    num::sparse_lu_d fresh(build(3.5));
    const auto x_full = fresh.solve(b);
    ASSERT_EQ(x_re.size(), x_full.size());
    for (std::size_t i = 0; i < x_re.size(); ++i) {
        EXPECT_EQ(x_re[i], x_full[i]);  // bit-identical, not just close
    }
}

TEST(sparse_lu, refactor_rejects_pattern_change) {
    num::sparse_matrix_d m(2);
    m.add(0, 0, 2.0);
    m.add(1, 1, 3.0);
    num::sparse_lu_d lu(m);
    m.add(0, 1, 1.0);  // structural change
    EXPECT_FALSE(lu.refactor(m));
    EXPECT_FALSE(lu.factored());
    lu.factor(m);  // recovers with a fresh symbolic pass
    EXPECT_EQ(lu.symbolic_count(), 2U);
    const auto x = lu.solve({2.0, 3.0});
    EXPECT_NEAR(x[0], 0.5, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(sparse_lu, refactor_rejects_other_matrix) {
    num::sparse_matrix_d m1(2);
    m1.add(0, 0, 1.0);
    m1.add(1, 1, 1.0);
    num::sparse_matrix_d m2(2);
    m2.add(0, 0, 1.0);
    m2.add(1, 1, 1.0);
    num::sparse_lu_d lu(m1);
    EXPECT_FALSE(lu.refactor(m2));  // same shape, different pattern token
}

TEST(sparse_lu, refactor_bails_on_vanishing_pivot) {
    num::sparse_matrix_d m(2);
    m.add(0, 0, 1.0);
    m.add(0, 1, 1.0);
    m.add(1, 0, 1.0);
    m.add(1, 1, 2.0);
    num::sparse_lu_d lu(m);
    // Make the second pivot exactly cancel: 2 - 1*2/1 ... set values so the
    // (1,1) elimination result is 0.
    m.zero_values();
    m.add_scaled([&] {
        num::sparse_matrix_d v(2);
        v.add(0, 0, 1.0);
        v.add(0, 1, 2.0);
        v.add(1, 0, 1.0);
        v.add(1, 1, 2.0);  // u22 = 2 - 1*2 = 0
        return v;
    }(), 1.0);
    EXPECT_FALSE(lu.refactor(m));
    EXPECT_FALSE(lu.factored());
}

TEST(sparse_lu, refactor_keeps_cancelled_fill_positions) {
    // An entry that cancels to exactly zero during the first factorization
    // must stay in the cached pattern: with different values it is nonzero
    // again and the refactor has to land it correctly.
    auto build = [](double a10) {
        num::sparse_matrix_d m(3);
        m.add(0, 0, 1.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, a10);
        m.add(1, 1, 1.0);  // a10 == 1 makes the (1,1) update cancel exactly
        m.add(1, 2, 1.0);
        m.add(2, 1, 1.0);
        m.add(2, 2, 4.0);
        return m;
    };
    num::sparse_matrix_d m = build(1.0);
    num::sparse_lu_d lu(m);
    m.zero_values();
    m.add_scaled(build(0.5), 1.0);
    if (lu.refactor(m)) {
        const std::vector<double> b{1.0, 2.0, 3.0};
        const auto x = lu.solve(b);
        num::dense_lu_d ref(build(0.5).to_dense());
        const auto xr = ref.solve(b);
        for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], xr[i], 1e-12);
    }
}

TEST(sparse_lu, repeated_refactor_matches_dense_reference) {
    // Random diagonally dominant pattern; rewrite values 10 times and check
    // each refactored solve against a dense factorization of the same values.
    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> val(0.5, 2.0);
    const std::size_t n = 25;
    num::sparse_matrix_d m(n);
    std::vector<std::pair<std::size_t, std::size_t>> off;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i != j && (rng() & 7U) == 0U) off.emplace_back(i, j);
        }
    }
    auto fill = [&](num::sparse_matrix_d& t) {
        std::mt19937 vals(static_cast<unsigned>(rng()));
        for (auto [i, j] : off) t.add(i, j, val(vals) * 0.1);
        for (std::size_t i = 0; i < n; ++i) t.add(i, i, 10.0 + val(vals));
    };
    fill(m);
    num::sparse_lu_d lu(m);
    std::vector<double> b(n, 1.0);
    for (int round = 0; round < 10; ++round) {
        m.zero_values();
        fill(m);
        ASSERT_TRUE(lu.refactor(m));
        const auto xs = lu.solve(b);
        num::dense_lu_d dlu(m.to_dense());
        const auto xd = dlu.solve(b);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
    }
    EXPECT_EQ(lu.symbolic_count(), 1U);
    EXPECT_EQ(lu.numeric_count(), 11U);
}

// --- sparse_lu::factor against the row-scan elimination it replaced -----

namespace {

/// What a full factorization decides: the export_symbolic() words, the L/U
/// values, or the column found singular.
template <typename T>
struct factor_outcome {
    bool singular = false;
    std::size_t singular_column = 0;
    std::vector<std::uint64_t> symbolic;
    std::vector<T> u_val, l_val;
};

/// The elimination sparse_lu::factor ran before it kept a column -> rows
/// index: the pivot search and the elimination scan every row r >= k.
/// Test-only reference for bit identity.
template <typename T>
factor_outcome<T> row_scan_factor(const num::sparse_matrix<T>& a) {
    const std::size_t n = a.size();
    std::vector<std::vector<std::size_t>> rows_idx(n), lower_idx(n);
    std::vector<std::vector<T>> rows_val(n), lower_val(n);
    for (std::size_t r = 0; r < n; ++r) {
        const auto idx = a.row_indices(r);
        const auto val = a.row_values(r);
        rows_idx[r].assign(idx.begin(), idx.end());
        rows_val[r].assign(val.begin(), val.end());
    }
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    std::vector<T> work(n, T{});
    std::vector<std::size_t> touched;
    const auto entry_at = [&](std::size_t r, std::size_t c) -> T {
        const auto& idx = rows_idx[r];
        const auto it = std::lower_bound(idx.begin(), idx.end(), c);
        return it != idx.end() && *it == c
                   ? rows_val[r][static_cast<std::size_t>(it - idx.begin())]
                   : T{};
    };
    factor_outcome<T> out;
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot = n;
        double best = 0.0, diag_mag = 0.0;
        for (std::size_t r = k; r < n; ++r) {
            const double mag = num::pivot_magnitude(entry_at(r, k));
            if (r == k) diag_mag = mag;
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best == 0.0) {
            out.singular = true;
            out.singular_column = k;
            return out;
        }
        if (diag_mag >= 0.1 * best) pivot = k;
        if (pivot != k) {
            std::swap(rows_idx[k], rows_idx[pivot]);
            std::swap(rows_val[k], rows_val[pivot]);
            std::swap(perm[k], perm[pivot]);
            std::swap(lower_idx[k], lower_idx[pivot]);
            std::swap(lower_val[k], lower_val[pivot]);
        }
        const T inv_piv = T(1) / entry_at(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const auto kit = std::lower_bound(rows_idx[r].begin(), rows_idx[r].end(), k);
            if (kit == rows_idx[r].end() || *kit != k) continue;
            const T mult =
                rows_val[r][static_cast<std::size_t>(kit - rows_idx[r].begin())] * inv_piv;
            lower_idx[r].push_back(k);
            lower_val[r].push_back(mult);
            touched.clear();
            for (std::size_t j = 0; j < rows_idx[r].size(); ++j) {
                if (rows_idx[r][j] > k) {
                    work[rows_idx[r][j]] = rows_val[r][j];
                    touched.push_back(rows_idx[r][j]);
                }
            }
            for (std::size_t j = 0; j < rows_idx[k].size(); ++j) {
                const std::size_t c = rows_idx[k][j];
                if (c <= k) continue;
                if (work[c] == T{} &&
                    std::find(touched.begin(), touched.end(), c) == touched.end()) {
                    touched.push_back(c);
                }
                work[c] -= mult * rows_val[k][j];
            }
            std::sort(touched.begin(), touched.end());
            rows_idx[r].clear();
            rows_val[r].clear();
            for (std::size_t c : touched) {
                rows_idx[r].push_back(c);
                rows_val[r].push_back(work[c]);
                work[c] = T{};
            }
        }
    }
    // The export_symbolic() layout: sizes, permutation, row pointers, columns.
    std::vector<std::uint64_t> u_ptr{0}, l_ptr{0}, u_col, l_col;
    for (std::size_t i = 0; i < n; ++i) {
        u_col.insert(u_col.end(), rows_idx[i].begin(), rows_idx[i].end());
        l_col.insert(l_col.end(), lower_idx[i].begin(), lower_idx[i].end());
        out.u_val.insert(out.u_val.end(), rows_val[i].begin(), rows_val[i].end());
        out.l_val.insert(out.l_val.end(), lower_val[i].begin(), lower_val[i].end());
        u_ptr.push_back(u_col.size());
        l_ptr.push_back(l_col.size());
    }
    out.symbolic = {n, u_col.size(), l_col.size()};
    out.symbolic.insert(out.symbolic.end(), perm.begin(), perm.end());
    out.symbolic.insert(out.symbolic.end(), u_ptr.begin() + 1, u_ptr.end());
    out.symbolic.insert(out.symbolic.end(), l_ptr.begin() + 1, l_ptr.end());
    out.symbolic.insert(out.symbolic.end(), u_col.begin(), u_col.end());
    out.symbolic.insert(out.symbolic.end(), l_col.begin(), l_col.end());
    return out;
}

template <typename T>
factor_outcome<T> indexed_factor(const num::sparse_matrix<T>& a) {
    factor_outcome<T> out;
    num::sparse_lu<T> lu;
    try {
        lu.factor(a);
    } catch (const num::singular_matrix& e) {
        out.singular = true;
        out.singular_column = e.column();
        return out;
    }
    out.symbolic = lu.export_symbolic();
    typename num::sparse_lu<T>::numeric_factors f;
    lu.swap_numeric(f);
    out.u_val = std::move(f.u_val);
    out.l_val = std::move(f.l_val);
    return out;
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/// A random sparse matrix of at most 30 unknowns: explicit-zero structural
/// entries, magnitudes that tie (so the first row in ascending order must
/// win), missing and small diagonals (so rows swap), some singular.
template <typename T>
num::sparse_matrix<T> random_lu_input(std::mt19937& rng) {
    const std::size_t n = 1 + rng() % 30;
    const double density = 0.05 + 0.05 * static_cast<double>(rng() % 8);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto value = [&]() -> T {
        const double u = unit(rng);
        if (u < 0.15) return T{};
        if (u < 0.5) {
            static constexpr double ties[] = {1.0, -1.0, 2.0, -2.0, 0.5, 0.05};
            return T(ties[rng() % 6]);
        }
        return T((2.0 * unit(rng) - 1.0) * std::pow(10.0, 6.0 * unit(rng) - 3.0));
    };
    num::sparse_matrix<T> m(n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            const bool want = r == c ? unit(rng) < 0.7 : unit(rng) < density;
            if (want) m.add(r, c, value());
        }
    }
    return m;
}

template <typename T>
void expect_factor_matches_row_scan(unsigned seeds) {
    std::size_t singular = 0, pivoted = 0;
    for (unsigned seed = 0; seed < seeds; ++seed) {
        std::mt19937 rng(seed);
        const auto m = random_lu_input<T>(rng);
        const auto want = row_scan_factor(m);
        const auto got = indexed_factor(m);
        ASSERT_EQ(got.singular, want.singular) << "seed " << seed;
        if (want.singular) {
            ++singular;
            EXPECT_EQ(got.singular_column, want.singular_column) << "seed " << seed;
            continue;
        }
        EXPECT_EQ(got.symbolic, want.symbolic) << "seed " << seed;
        EXPECT_TRUE(same_bits(got.u_val, want.u_val)) << "seed " << seed;
        EXPECT_TRUE(same_bits(got.l_val, want.l_val)) << "seed " << seed;
        const std::size_t n = m.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (want.symbolic[3 + i] != i) {
                ++pivoted;
                break;
            }
        }
    }
    // Singular and regular inputs, with and without row swaps, all occur.
    EXPECT_GT(singular, 0U);
    EXPECT_GT(pivoted, seeds / 10);
    EXPECT_LT(singular + pivoted, seeds);
}

}  // namespace

TEST(sparse_lu, factor_matches_the_row_scan_elimination_bit_for_bit) {
    expect_factor_matches_row_scan<double>(400);
}

TEST(sparse_lu, complex_factor_matches_the_row_scan_elimination_bit_for_bit) {
    expect_factor_matches_row_scan<std::complex<double>>(100);
}

// --- property sweep: random diagonally dominant systems, sparse vs dense ---

class random_system_property : public ::testing::TestWithParam<int> {};

TEST_P(random_system_property, sparse_and_dense_agree) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    std::uniform_real_distribution<double> val(-1.0, 1.0);
    std::uniform_int_distribution<std::size_t> sz(3, 40);

    const std::size_t n = sz(rng);
    num::sparse_matrix_d m(n);
    for (std::size_t i = 0; i < n; ++i) {
        double row_sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j) continue;
            if ((rng() & 3U) == 0U) {  // ~25% density
                const double v = val(rng);
                m.add(i, j, v);
                row_sum += std::abs(v);
            }
        }
        m.add(i, i, row_sum + 1.0);  // strict diagonal dominance
    }
    std::vector<double> b(n);
    for (auto& v : b) v = val(rng);

    num::sparse_lu_d slu(m);
    num::dense_lu_d dlu(m.to_dense());
    const auto xs = slu.solve(b);
    const auto xd = dlu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);

    // Residual check against the original operator.
    const auto r = m.multiply(xs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(seeds, random_system_property, ::testing::Range(0, 25));
