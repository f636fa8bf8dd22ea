/**
 * @file
 * Destination-passing dense kernels for the hot solver paths
 * (docs/PERFORMANCE.md). The operator overloads in matrix.hh allocate a
 * fresh result per call, which is fine for tests and cold code but
 * dominates the window solver's inner loops; these variants write into a
 * caller-owned destination, exploit symmetry where the algebra
 * guarantees it, and never allocate beyond resizing the destination.
 *
 * Every kernel runs serially on the calling thread, in a fixed
 * per-element arithmetic order; parallelism lives above the kernels (one
 * pool task per session), so results do not depend on the thread count.
 *
 * Inner loops run on the simd::ops() primitive table (linalg/simd.hh):
 * scalar or AVX2/FMA, selected once at startup. Results are bit-identical
 * run to run within a backend; across backends they agree to rounding
 * tolerance only. Each kernel keeps every element's operands,
 * term order and rounding when it routes a loop through a batched
 * primitive, so the batching moves no result.
 */

#ifndef ARCHYTAS_LINALG_KERNELS_HH
#define ARCHYTAS_LINALG_KERNELS_HH

#include "linalg/matrix.hh"

namespace archytas::linalg {

/** out = a b. Resizes out; out must not alias a or b. */
void multiplyInto(Matrix &out, const Matrix &a, const Matrix &b);

/** out = a x. Resizes out; out must not alias x. */
void multiplyInto(Vector &out, const Matrix &a, const Vector &x);

/** out -= a x (no temporaries). out must not alias x. */
void subtractMultiply(Vector &out, const Matrix &a, const Vector &x);

/**
 * Symmetric rank-k update: c -= a b^T where the algebra guarantees
 * a b^T is symmetric (e.g. a = W U^{-1}, b = W with U symmetric).
 * Computes the upper triangle only and mirrors the subtraction into the
 * lower one -- half the FLOPs of the general product. Row i's dots
 * against rows j >= i of b come from batched simd dots (each is
 * dot(a_i, b_j) bit for bit). a and b are n x k; c is n x n and must
 * not alias a or b.
 */
void subtractSymmetricProduct(Matrix &c, const Matrix &a, const Matrix &b);

/**
 * Gram-type block accumulation: h[r0+i, c0+j] += wt * (a^T b)(i, j).
 * a and b share their row count (the residual dimension); the block
 * written is a.cols() x b.cols(). This is the per-factor H update of
 * the normal-equation assembly: one simd rankUpdate per block (up to 16
 * residual rows and 16 block rows per call), each element taking
 * (wt a(k, i)) b(k, j) for the residual rows k in order.
 */
void addOuterProductTransposed(Matrix &h, std::size_t r0, std::size_t c0,
                               const Matrix &a, const Matrix &b, double wt);

/** As above, accumulating into an arena-backed view. */
void addOuterProductTransposed(MatrixView &h, std::size_t r0,
                               std::size_t c0, const Matrix &a,
                               const Matrix &b, double wt);

/**
 * Gradient-side rhs accumulation: g[r0+i] -= wt * (a^T x)(i), with x a
 * raw residual pointer of a.rows() entries (residuals live in small
 * stack arrays on the factor hot path).
 */
void subtractTransposeApplyScaled(Vector &g, std::size_t r0,
                                  const Matrix &a, const double *x,
                                  double wt);

/** As above into a raw segment of `gsize` entries (arena-backed rhs). */
void subtractTransposeApplyScaled(double *g, std::size_t gsize,
                                  std::size_t r0, const Matrix &a,
                                  const double *x, double wt);

} // namespace archytas::linalg

#endif // ARCHYTAS_LINALG_KERNELS_HH
