// Dense linear algebra: row-major matrix, LU factorization with partial
// pivoting, and the vector helpers the solvers need.  Templated on the scalar
// type so the same code serves real transient solves (double) and complex
// small-signal AC solves (std::complex<double>).
#ifndef SCA_NUMERIC_DENSE_HPP
#define SCA_NUMERIC_DENSE_HPP

#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "util/report.hpp"

namespace sca::num {

/// Magnitude used for pivot selection; works for real and complex scalars.
template <typename T>
double pivot_magnitude(const T& v) {
    return std::abs(v);
}

/// Row-major dense matrix.
template <typename T>
class dense_matrix {
public:
    dense_matrix() = default;
    dense_matrix(std::size_t rows, std::size_t cols, T init = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, init) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    T& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
    const T& operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    void resize(std::size_t rows, std::size_t cols, T init = T{}) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, init);
    }

    void fill(T value) { data_.assign(data_.size(), value); }

    /// y = this * x
    [[nodiscard]] std::vector<T> multiply(const std::vector<T>& x) const {
        util::require(x.size() == cols_, "dense_matrix", "multiply: dimension mismatch");
        std::vector<T> y(rows_, T{});
        for (std::size_t r = 0; r < rows_; ++r) {
            T acc{};
            const T* row = &data_[r * cols_];
            for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
            y[r] = acc;
        }
        return y;
    }

    [[nodiscard]] const std::vector<T>& data() const noexcept { return data_; }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

/// LU factorization with partial (row) pivoting of a square dense matrix.
///
/// Factor once, solve many times — the usage pattern of a fixed-timestep
/// linear DAE solver where the iteration matrix only changes when a model
/// parameter or the timestep changes.
template <typename T>
class dense_lu {
public:
    dense_lu() = default;

    /// Factor `a` (copied). Throws sca::util::error on singularity.
    explicit dense_lu(const dense_matrix<T>& a) { factor(a); }

    void factor(const dense_matrix<T>& a) {
        util::require(a.rows() == a.cols(), "dense_lu", "matrix must be square");
        n_ = a.rows();
        lu_ = a;
        perm_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;

        for (std::size_t k = 0; k < n_; ++k) {
            // Partial pivoting: pick the largest magnitude entry in column k.
            std::size_t pivot = k;
            double best = pivot_magnitude(lu_(k, k));
            for (std::size_t r = k + 1; r < n_; ++r) {
                const double mag = pivot_magnitude(lu_(r, k));
                if (mag > best) {
                    best = mag;
                    pivot = r;
                }
            }
            util::require(best > 0.0, "dense_lu", "matrix is singular");
            if (pivot != k) {
                for (std::size_t c = 0; c < n_; ++c) std::swap(lu_(k, c), lu_(pivot, c));
                std::swap(perm_[k], perm_[pivot]);
            }
            const T inv_piv = T(1) / lu_(k, k);
            for (std::size_t r = k + 1; r < n_; ++r) {
                const T factor_rk = lu_(r, k) * inv_piv;
                lu_(r, k) = factor_rk;
                if (factor_rk == T{}) continue;
                for (std::size_t c = k + 1; c < n_; ++c) lu_(r, c) -= factor_rk * lu_(k, c);
            }
        }
        factored_ = true;
    }

    /// Solve A x = b using the stored factors.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const {
        std::vector<T> x;
        solve_into(b, x);
        return x;
    }

    /// Solve into a caller-owned buffer (no allocation once x has capacity);
    /// b and x must be distinct vectors.
    void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
        util::require(factored_, "dense_lu", "solve before factor");
        util::require(b.size() == n_, "dense_lu", "solve: dimension mismatch");
        util::require(&b != &x, "dense_lu", "solve: aliased output");
        x.assign(n_, T{});
        // Apply permutation and forward-substitute L (unit diagonal).
        for (std::size_t i = 0; i < n_; ++i) {
            T acc = b[perm_[i]];
            for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
            x[i] = acc;
        }
        // Back-substitute U.
        for (std::size_t ii = n_; ii-- > 0;) {
            T acc = x[ii];
            for (std::size_t j = ii + 1; j < n_; ++j) acc -= lu_(ii, j) * x[j];
            x[ii] = acc / lu_(ii, ii);
        }
    }

    [[nodiscard]] bool factored() const noexcept { return factored_; }
    [[nodiscard]] std::size_t size() const noexcept { return n_; }

private:
    std::size_t n_ = 0;
    dense_matrix<T> lu_;
    std::vector<std::size_t> perm_;
    bool factored_ = false;
};

// ------------------------------------------------------- vector utilities --

/// Maximum-magnitude norm.
inline double norm_inf(const std::vector<double>& x) {
    double m = 0.0;
    for (double v : x) m = std::max(m, std::abs(v));
    return m;
}

using dense_matrix_d = dense_matrix<double>;
using dense_matrix_z = dense_matrix<std::complex<double>>;
using dense_lu_d = dense_lu<double>;
using dense_lu_z = dense_lu<std::complex<double>>;

}  // namespace sca::num

#endif  // SCA_NUMERIC_DENSE_HPP
