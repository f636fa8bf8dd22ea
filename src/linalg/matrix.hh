/**
 * @file
 * Dense row-major matrix/vector types used throughout the SLAM substrate,
 * the M-DFG executor, and the hardware simulator. The class is deliberately
 * small and explicit: the repository's goal is to model how localization
 * kernels map onto hardware, so every compound operation (multiply, Schur,
 * Cholesky) is implemented in named free functions whose arithmetic cost is
 * easy to account for.
 */

#ifndef ARCHYTAS_LINALG_MATRIX_HH
#define ARCHYTAS_LINALG_MATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/contracts.hh"

namespace archytas::linalg {

/** Dense, heap-allocated, row-major matrix of doubles. */
class Matrix
{
  public:
    /** Creates an empty 0x0 matrix. */
    Matrix() = default;

    /** Creates a rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Creates from a nested initializer list (rows of equal length). */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    static Matrix identity(std::size_t n);
    /** Diagonal matrix from the given entries. */
    static Matrix diagonal(const std::vector<double> &entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** Element (r, c), bounds-checked in contract builds. Defined here
     *  so the per-element calls of scalar loops inline. */
    double &
    operator()(std::size_t r, std::size_t c)
    {
        ARCHYTAS_CHECK_BOUNDS("Matrix::operator() row", r, rows_);
        ARCHYTAS_CHECK_BOUNDS("Matrix::operator() col", c, cols_);
        return data_[r * cols_ + c];
    }

    double
    operator()(std::size_t r, std::size_t c) const
    {
        ARCHYTAS_CHECK_BOUNDS("Matrix::operator() row", r, rows_);
        ARCHYTAS_CHECK_BOUNDS("Matrix::operator() col", c, cols_);
        return data_[r * cols_ + c];
    }

    /** Raw storage access for kernels that stream the matrix. */
    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /** Pointer to row r's contiguous storage (SIMD kernel hot path). */
    double *
    rowPtr(std::size_t r)
    {
        ARCHYTAS_CHECK_BOUNDS("Matrix::rowPtr", r, rows_);
        return data_.data() + r * cols_;
    }

    const double *
    rowPtr(std::size_t r) const
    {
        ARCHYTAS_CHECK_BOUNDS("Matrix::rowPtr", r, rows_);
        return data_.data() + r * cols_;
    }

    void setZero();
    void setIdentity();

    /** Extracts the block [r0, r0+nr) x [c0, c0+nc). */
    Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
                 std::size_t nc) const;
    /** Writes b into this matrix at offset (r0, c0). */
    void setBlock(std::size_t r0, std::size_t c0, const Matrix &b);

    Matrix transposed() const;

    Matrix &operator+=(const Matrix &rhs);
    Matrix &operator-=(const Matrix &rhs);
    Matrix &operator*=(double s);

    /** Frobenius norm. */
    double norm() const;
    /** Largest |a_ij - b_ij|; matrices must be the same shape. */
    double maxAbsDiff(const Matrix &other) const;
    /** True when symmetric to within tol. */
    bool isSymmetric(double tol = 1e-9) const;

    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix &rhs);
Matrix operator-(Matrix lhs, const Matrix &rhs);
Matrix operator*(const Matrix &lhs, const Matrix &rhs);
Matrix operator*(double s, Matrix m);

/**
 * Non-owning row-major matrix view over caller-owned storage (arena
 * slices, such as marginalization's dense block). The caller guarantees
 * the pointed-to buffer outlives the view and holds rows*cols doubles.
 */
class MatrixView
{
  public:
    MatrixView() = default;

    MatrixView(double *data, std::size_t rows, std::size_t cols)
        : data_(data), rows_(rows), cols_(cols)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    double &
    operator()(std::size_t r, std::size_t c)
    {
        ARCHYTAS_CHECK_BOUNDS("MatrixView row", r, rows_);
        ARCHYTAS_CHECK_BOUNDS("MatrixView col", c, cols_);
        return data_[r * cols_ + c];
    }

    double
    operator()(std::size_t r, std::size_t c) const
    {
        ARCHYTAS_CHECK_BOUNDS("MatrixView row", r, rows_);
        ARCHYTAS_CHECK_BOUNDS("MatrixView col", c, cols_);
        return data_[r * cols_ + c];
    }

    double *
    rowPtr(std::size_t r)
    {
        ARCHYTAS_CHECK_BOUNDS("MatrixView::rowPtr", r, rows_);
        return data_ + r * cols_;
    }

    const double *
    rowPtr(std::size_t r) const
    {
        ARCHYTAS_CHECK_BOUNDS("MatrixView::rowPtr", r, rows_);
        return data_ + r * cols_;
    }

    double *data() { return data_; }
    const double *data() const { return data_; }

    void setZero();

  private:
    double *data_ = nullptr;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
};

/** Column vector as an nx1 matrix alias with helpers. */
class Vector
{
  public:
    Vector() = default;
    explicit Vector(std::size_t n) : data_(n, 0.0) {}
    Vector(std::initializer_list<double> xs) : data_(xs) {}

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double &
    operator[](std::size_t i)
    {
        ARCHYTAS_CHECK_BOUNDS("Vector::operator[]", i, data_.size());
        return data_[i];
    }

    double
    operator[](std::size_t i) const
    {
        ARCHYTAS_CHECK_BOUNDS("Vector::operator[]", i, data_.size());
        return data_[i];
    }

    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    void setZero();

    Vector segment(std::size_t start, std::size_t n) const;
    void setSegment(std::size_t start, const Vector &v);

    Vector &operator+=(const Vector &rhs);
    Vector &operator-=(const Vector &rhs);
    Vector &operator*=(double s);

    double dot(const Vector &other) const;
    double norm() const;
    double maxAbsDiff(const Vector &other) const;

    /** Interprets the vector as an nx1 matrix. */
    Matrix asMatrix() const;

    std::string toString(int precision = 4) const;

  private:
    std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector &rhs);
Vector operator-(Vector lhs, const Vector &rhs);
Vector operator*(double s, Vector v);

/** y = A x. */
Vector operator*(const Matrix &a, const Vector &x);

/** A^T A, exploiting symmetry of the result (rank-k update). */
Matrix gramian(const Matrix &a);

/** A^T x. */
Vector transposeApply(const Matrix &a, const Vector &x);

/** Outer product x y^T. */
Matrix outer(const Vector &x, const Vector &y);

} // namespace archytas::linalg

#endif // ARCHYTAS_LINALG_MATRIX_HH
