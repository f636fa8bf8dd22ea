#include "linalg/matrix.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/contracts.hh"
#include "common/logging.hh"

namespace archytas::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        ARCHYTAS_ASSERT(row.size() == cols_, "ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::diagonal(const std::vector<double> &entries)
{
    Matrix m(entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, i) = entries[i];
    return m;
}

void
Matrix::setZero()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

void
Matrix::setIdentity()
{
    setZero();
    const std::size_t n = std::min(rows_, cols_);
    for (std::size_t i = 0; i < n; ++i)
        (*this)(i, i) = 1.0;
}

Matrix
Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
              std::size_t nc) const
{
    ARCHYTAS_DCHECK(r0 + nr <= rows_ && c0 + nc <= cols_,
                    "Matrix::block [", r0, "+", nr, ", ", c0, "+", nc,
                    ") out of range for ", rows_, "x", cols_);
    Matrix b(nr, nc);
    for (std::size_t r = 0; r < nr; ++r)
        for (std::size_t c = 0; c < nc; ++c)
            b(r, c) = (*this)(r0 + r, c0 + c);
    return b;
}

void
Matrix::setBlock(std::size_t r0, std::size_t c0, const Matrix &b)
{
    ARCHYTAS_DCHECK(r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_,
                    "Matrix::setBlock [", r0, "+", b.rows(), ", ", c0, "+",
                    b.cols(), ") out of range for ", rows_, "x", cols_);
    for (std::size_t r = 0; r < b.rows(); ++r)
        for (std::size_t c = 0; c < b.cols(); ++c)
            (*this)(r0 + r, c0 + c) = b(r, c);
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            t(c, r) = (*this)(r, c);
    return t;
}

Matrix &
Matrix::operator+=(const Matrix &rhs)
{
    ARCHYTAS_CHECK_DIM("Matrix::operator+= rows", rhs.rows_, rows_);
    ARCHYTAS_CHECK_DIM("Matrix::operator+= cols", rhs.cols_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += rhs.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &rhs)
{
    ARCHYTAS_CHECK_DIM("Matrix::operator-= rows", rhs.rows_, rows_);
    ARCHYTAS_CHECK_DIM("Matrix::operator-= cols", rhs.cols_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= rhs.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (double &x : data_)
        x *= s;
    return *this;
}

double
Matrix::norm() const
{
    double acc = 0.0;
    for (double x : data_)
        acc += x * x;
    return std::sqrt(acc);
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    ARCHYTAS_CHECK_DIM("Matrix::maxAbsDiff rows", other.rows_, rows_);
    ARCHYTAS_CHECK_DIM("Matrix::maxAbsDiff cols", other.cols_, cols_);
    double worst = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
    return worst;
}

bool
Matrix::isSymmetric(double tol) const
{
    if (rows_ != cols_)
        return false;
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = r + 1; c < cols_; ++c)
            if (std::abs((*this)(r, c) - (*this)(c, r)) > tol)
                return false;
    return true;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        os << "[ ";
        for (std::size_t c = 0; c < cols_; ++c)
            os << (*this)(r, c) << " ";
        os << "]\n";
    }
    return os.str();
}

Matrix
operator+(Matrix lhs, const Matrix &rhs)
{
    lhs += rhs;
    return lhs;
}

Matrix
operator-(Matrix lhs, const Matrix &rhs)
{
    lhs -= rhs;
    return lhs;
}

Matrix
operator*(const Matrix &lhs, const Matrix &rhs)
{
    ARCHYTAS_CHECK_DIM("matmul inner dimension", rhs.rows(), lhs.cols());
    Matrix out(lhs.rows(), rhs.cols());
    // i-k-j loop order keeps the inner loop streaming over contiguous rows.
    for (std::size_t i = 0; i < lhs.rows(); ++i) {
        for (std::size_t k = 0; k < lhs.cols(); ++k) {
            const double a = lhs(i, k);
            if (a == 0.0)
                continue;
            for (std::size_t j = 0; j < rhs.cols(); ++j)
                out(i, j) += a * rhs(k, j);
        }
    }
    return out;
}

Matrix
operator*(double s, Matrix m)
{
    m *= s;
    return m;
}

void
Vector::setZero()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

Vector
Vector::segment(std::size_t start, std::size_t n) const
{
    ARCHYTAS_DCHECK(start + n <= data_.size(), "Vector::segment [", start,
                    ", ", start + n, ") out of range for size ",
                    data_.size());
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = data_[start + i];
    return v;
}

void
Vector::setSegment(std::size_t start, const Vector &v)
{
    ARCHYTAS_DCHECK(start + v.size() <= data_.size(),
                    "Vector::setSegment [", start, ", ", start + v.size(),
                    ") out of range for size ", data_.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        data_[start + i] = v[i];
}

Vector &
Vector::operator+=(const Vector &rhs)
{
    ARCHYTAS_CHECK_DIM("Vector::operator+=", rhs.size(), size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += rhs.data_[i];
    return *this;
}

Vector &
Vector::operator-=(const Vector &rhs)
{
    ARCHYTAS_CHECK_DIM("Vector::operator-=", rhs.size(), size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= rhs.data_[i];
    return *this;
}

Vector &
Vector::operator*=(double s)
{
    for (double &x : data_)
        x *= s;
    return *this;
}

double
Vector::dot(const Vector &other) const
{
    ARCHYTAS_CHECK_DIM("Vector::dot", other.size(), size());
    double acc = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        acc += data_[i] * other.data_[i];
    return acc;
}

double
Vector::norm() const
{
    return std::sqrt(dot(*this));
}

double
Vector::maxAbsDiff(const Vector &other) const
{
    ARCHYTAS_CHECK_DIM("Vector::maxAbsDiff", other.size(), size());
    double worst = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
    return worst;
}

Matrix
Vector::asMatrix() const
{
    Matrix m(size(), 1);
    for (std::size_t i = 0; i < size(); ++i)
        m(i, 0) = data_[i];
    return m;
}

std::string
Vector::toString(int precision) const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << "[ ";
    for (double x : data_)
        os << x << " ";
    os << "]";
    return os.str();
}

Vector
operator+(Vector lhs, const Vector &rhs)
{
    lhs += rhs;
    return lhs;
}

Vector
operator-(Vector lhs, const Vector &rhs)
{
    lhs -= rhs;
    return lhs;
}

Vector
operator*(double s, Vector v)
{
    v *= s;
    return v;
}

Vector
operator*(const Matrix &a, const Vector &x)
{
    ARCHYTAS_CHECK_DIM("matvec inner dimension", x.size(), a.cols());
    Vector y(a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < a.cols(); ++c)
            acc += a(r, c) * x[c];
        y[r] = acc;
    }
    return y;
}

Matrix
gramian(const Matrix &a)
{
    ARCHYTAS_DCHECK(a.rows() > 0 || a.cols() == 0,
                    "gramian: matrix with columns but no rows");
    const std::size_t n = a.cols();
    Matrix g(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k)
                acc += a(k, i) * a(k, j);
            g(i, j) = acc;
            g(j, i) = acc;
        }
    }
    return g;
}

Vector
transposeApply(const Matrix &a, const Vector &x)
{
    ARCHYTAS_CHECK_DIM("transposeApply inner dimension", x.size(), a.rows());
    Vector y(a.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const double xr = x[r];
        if (xr == 0.0)
            continue;
        for (std::size_t c = 0; c < a.cols(); ++c)
            y[c] += a(r, c) * xr;
    }
    return y;
}

void
MatrixView::setZero()
{
    std::fill(data_, data_ + rows_ * cols_, 0.0);
}

Matrix
outer(const Vector &x, const Vector &y)
{
    ARCHYTAS_DCHECK(x.size() > 0 && y.size() > 0,
                    "outer: empty operand, ", x.size(), "x", y.size());
    Matrix m(x.size(), y.size());
    for (std::size_t r = 0; r < x.size(); ++r)
        for (std::size_t c = 0; c < y.size(); ++c)
            m(r, c) = x[r] * y[c];
    return m;
}

} // namespace archytas::linalg
