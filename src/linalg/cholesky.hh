/**
 * @file
 * Cholesky decomposition and triangular solves: the CD and FBSub
 * primitive M-DFG nodes (Table 1 of the paper). The accelerator's
 * functional path is the software solve, so this is also the Cholesky
 * unit's arithmetic; hw::CholeskyUnit models only its timing.
 */

#ifndef ARCHYTAS_LINALG_CHOLESKY_HH
#define ARCHYTAS_LINALG_CHOLESKY_HH

#include <optional>

#include "linalg/matrix.hh"

namespace archytas::linalg {

/**
 * Computes the lower-triangular L with S = L L^T.
 *
 * @param s Symmetric positive-definite input.
 * @return L, or std::nullopt when a non-positive pivot is met (S not PD).
 */
std::optional<Matrix> cholesky(const Matrix &s);

/**
 * Destination-passing factorization: L (resized to S's shape, upper
 * triangle zeroed) with S = L L^T. Returns false when S is not positive
 * definite. The inner dot products run on the simd::ops() backend: each
 * column's sub-diagonal dots are one batched dots call, bit for bit one
 * dot per element. The allocating cholesky() above is a thin wrapper,
 * and a reused destination factors bit-identically to a fresh one.
 */
bool choleskyInto(Matrix &l, const Matrix &s);

/** Solves L y = b for lower-triangular L (forward substitution). */
Vector forwardSubstitute(const Matrix &l, const Vector &b);

/** Destination-passing forward substitution; y must not alias b. */
void forwardSubstituteInto(Vector &y, const Matrix &l, const Vector &b);

/** Solves L^T x = y for lower-triangular L (backward substitution). */
Vector backwardSubstitute(const Matrix &l, const Vector &y);

/**
 * Destination-passing backward substitution; x must not alias y. The
 * transposed access pattern is column-strided, so this stays scalar:
 * after the entry shape checks it reads L through its row-major storage.
 */
void backwardSubstituteInto(Vector &x, const Matrix &l, const Vector &y);

/**
 * Solves the SPD system S x = b via Cholesky + forward/backward
 * substitution. Fatal (user error) when S is not positive definite.
 */
Vector choleskySolve(const Matrix &s, const Vector &b);

/** Inverse of an SPD matrix via Cholesky. */
Matrix choleskyInverse(const Matrix &s);

/** Reusable buffers of choleskyInverseInto. */
struct CholeskyInverseWork
{
    Matrix l;          //!< The Cholesky factor.
    Vector unit, y, x; //!< Unit column, forward and backward solves.
};

/**
 * As choleskyInverse, into inv with work's buffers: the same bits, and
 * no allocation once inv and work have the shape. inv must not alias s.
 */
void choleskyInverseInto(Matrix &inv, const Matrix &s,
                         CholeskyInverseWork &work);

/**
 * Inverse of a diagonal matrix: the DMatInv primitive node. Fatal when a
 * diagonal entry is zero.
 */
Matrix diagonalInverse(const Matrix &d);

/**
 * As diagonalInverse of d's leading n x n block (only its diagonal is
 * read), into inv's storage: no allocation once inv is n x n.
 */
void diagonalInverseInto(Matrix &inv, const Matrix &d, std::size_t n);

} // namespace archytas::linalg

#endif // ARCHYTAS_LINALG_CHOLESKY_HH
