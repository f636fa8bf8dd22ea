#include "linalg/cholesky.hh"

#include <algorithm>
#include <cmath>

#include "common/contracts.hh"
#include "common/logging.hh"
#include "linalg/simd.hh"

namespace archytas::linalg {

std::optional<Matrix>
cholesky(const Matrix &s)
{
    Matrix l;
    if (!choleskyInto(l, s))
        return std::nullopt;
    return l;
}

bool
choleskyInto(Matrix &l, const Matrix &s)
{
    ARCHYTAS_CHECK_DIM("cholesky: square matrix required", s.cols(),
                       s.rows());
    const std::size_t n = s.rows();
    if (l.rows() != n || l.cols() != n)
        l = Matrix(n, n);
    const simd::Ops &v = simd::ops();
    // Both matrices are n x n (entry check above and the resize), so
    // every row-major index below is in range.
    const double *sp = s.data().data();
    double *lp = l.data().data();
    for (std::size_t j = 0; j < n; ++j) {
        double *lj = lp + j * n;
        const double diag = sp[j * n + j] - v.dot(lj, lj, j);
        if (diag <= 0.0)
            return false;
        const double ljj = std::sqrt(diag);
        lj[j] = ljj;
        const double inv_ljj = 1.0 / ljj;
        // Column j below the diagonal: one batched call computes every
        // row's dot with row j, parked in row j's strict upper triangle
        // (not yet read by anything), then each entry is finished as
        // (s(i, j) - dot) / l(j, j) in row order.
        double *dots = lj + j + 1;
        if (j + 1 < n)
            v.dots(dots, lj + n, n, n - j - 1, lj, j);
        for (std::size_t i = j + 1; i < n; ++i)
            lp[i * n + j] = (sp[i * n + j] - dots[i - j - 1]) * inv_ljj;
        // Keep the strict upper triangle zeroed so a reused destination
        // matches a freshly allocated one bit-for-bit.
        std::fill(lj + j + 1, lj + n, 0.0);
    }
    return true;
}

Vector
forwardSubstitute(const Matrix &l, const Vector &b)
{
    Vector y;
    forwardSubstituteInto(y, l, b);
    return y;
}

void
forwardSubstituteInto(Vector &y, const Matrix &l, const Vector &b)
{
    ARCHYTAS_CHECK_DIM("forwardSubstitute: square L required", l.cols(),
                       l.rows());
    ARCHYTAS_CHECK_DIM("forwardSubstitute: rhs size", b.size(), l.rows());
    ARCHYTAS_DCHECK(&y != &b, "forwardSubstituteInto: y aliases b");
    const std::size_t n = b.size();
    if (y.size() != n)
        y = Vector(n);
    const simd::Ops &v = simd::ops();
    double *yp = y.data().data();
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = l.rowPtr(i);
        const double acc = b[i] - v.dot(li, yp, i);
        ARCHYTAS_ASSERT(li[i] != 0.0, "singular triangular matrix");
        yp[i] = acc / li[i];
    }
}

Vector
backwardSubstitute(const Matrix &l, const Vector &y)
{
    Vector x;
    backwardSubstituteInto(x, l, y);
    return x;
}

void
backwardSubstituteInto(Vector &x, const Matrix &l, const Vector &y)
{
    ARCHYTAS_CHECK_DIM("backwardSubstitute: square L required", l.cols(),
                       l.rows());
    ARCHYTAS_CHECK_DIM("backwardSubstitute: rhs size", y.size(), l.rows());
    ARCHYTAS_DCHECK(&x != &y, "backwardSubstituteInto: x aliases y");
    const std::size_t n = y.size();
    if (x.size() != n)
        x = Vector(n);
    // L is n x n (entry checks above): read it through its row-major
    // storage, column i walked down its rows in the same k order.
    const double *lp = l.data().data();
    const double *yp = y.data().data();
    double *xp = x.data().data();
    for (std::size_t ii = 0; ii < n; ++ii) {
        const std::size_t i = n - 1 - ii;
        double acc = yp[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= lp[k * n + i] * xp[k];
        ARCHYTAS_ASSERT(lp[i * n + i] != 0.0, "singular triangular matrix");
        xp[i] = acc / lp[i * n + i];
    }
}

Vector
choleskySolve(const Matrix &s, const Vector &b)
{
    ARCHYTAS_CHECK_DIM("choleskySolve: rhs size", b.size(), s.rows());
    auto l = cholesky(s);
    if (!l)
        ARCHYTAS_FATAL("choleskySolve: matrix is not positive definite");
    return backwardSubstitute(*l, forwardSubstitute(*l, b));
}

Matrix
choleskyInverse(const Matrix &s)
{
    Matrix inv;
    CholeskyInverseWork work;
    choleskyInverseInto(inv, s, work);
    return inv;
}

void
choleskyInverseInto(Matrix &inv, const Matrix &s, CholeskyInverseWork &work)
{
    ARCHYTAS_CHECK_DIM("choleskyInverse: square input", s.cols(), s.rows());
    ARCHYTAS_DCHECK(&inv != &s, "choleskyInverseInto: inv aliases s");
    if (!choleskyInto(work.l, s))
        ARCHYTAS_FATAL("choleskyInverse: matrix is not positive definite");
    const std::size_t n = s.rows();
    if (inv.rows() != n || inv.cols() != n)
        inv = Matrix(n, n);
    if (work.unit.size() != n)
        work.unit = Vector(n);
    work.unit.setZero();
    // Column c solves L L^T x = e_c; every entry of inv is written.
    for (std::size_t c = 0; c < n; ++c) {
        work.unit[c] = 1.0;
        forwardSubstituteInto(work.y, work.l, work.unit);
        backwardSubstituteInto(work.x, work.l, work.y);
        work.unit[c] = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            inv(r, c) = work.x[r];
    }
}

Matrix
diagonalInverse(const Matrix &d)
{
    ARCHYTAS_CHECK_DIM("diagonalInverse: square matrix required", d.cols(),
                       d.rows());
    Matrix inv;
    diagonalInverseInto(inv, d, d.rows());
    return inv;
}

void
diagonalInverseInto(Matrix &inv, const Matrix &d, std::size_t n)
{
    ARCHYTAS_DCHECK(n <= d.rows() && n <= d.cols(), "diagonalInverse: ",
                    n, " x ", n, " block of a ", d.rows(), " x ", d.cols(),
                    " matrix");
    if (inv.rows() != n || inv.cols() != n)
        inv = Matrix(n, n);
    else
        inv.setZero();
    for (std::size_t i = 0; i < n; ++i) {
        if (d(i, i) == 0.0)
            ARCHYTAS_FATAL("diagonalInverse: zero diagonal entry at ", i);
        inv(i, i) = 1.0 / d(i, i);
    }
}

} // namespace archytas::linalg
