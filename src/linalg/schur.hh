/**
 * @file
 * Schur-complement kernels. The paper distinguishes two flavours
 * (Sec. 3.2.2 / 3.2.3):
 *
 *  - D-type: V - W U^{-1} W^T where U is diagonal; used by the NLS solver's
 *    Schur elimination, where the point (landmark) block of the normal
 *    equations is (block-)diagonal.
 *  - M-type: A - Lambda M^{-1} Lambda^T where M is a general symmetric
 *    matrix; used by marginalization, where M is inverted via the blocked
 *    identity of Eq. 5 with a diagonal M11 block.
 */

#ifndef ARCHYTAS_LINALG_SCHUR_HH
#define ARCHYTAS_LINALG_SCHUR_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"

namespace archytas::linalg {

/** Result of a D-type Schur elimination on [[U, W^T], [W, V]] x = [bx, by]. */
struct DSchurResult
{
    Matrix reduced;      //!< V - W U^{-1} W^T (the q x q reduced system).
    Vector reducedRhs;   //!< by - W U^{-1} bx.
};

/**
 * D-type Schur complement with diagonal U (Eq. 4 of the paper).
 *
 * @param u Diagonal p x p matrix (only the diagonal is read).
 * @param w q x p coupling block (the paper's W; X = W^T by symmetry).
 * @param v q x q block.
 * @param bx p-dimensional rhs segment.
 * @param by q-dimensional rhs segment.
 */
DSchurResult dSchur(const Matrix &u, const Matrix &w, const Matrix &v,
                    const Vector &bx, const Vector &by);

/**
 * Recovers the eliminated unknowns: x = U^{-1} (bx - W^T y) given the
 * solution y of the reduced system.
 */
Vector dSchurBackSubstitute(const Matrix &u, const Matrix &w,
                            const Vector &bx, const Vector &y);

/**
 * Block-sparse D-type Schur update keyed on feature-track support:
 * reduced -= W U^{-1} W^T and rhs -= W U^{-1} bx using only the keyframe
 * blocks each feature actually observes, and only the leading rows of
 * each block that W can fill. The CSR-like inputs describe W's column f
 * as the segment-long pieces w_blocks[s * segment ..] for s in
 * [support_offsets[f], support_offsets[f+1]), each sitting at row
 * support_blocks[s] * block_stride; the other block_stride - segment
 * rows of every block are zero and are skipped. Block indices must be
 * sorted and unique per feature. The work runs per keyframe block pair:
 * each pair lists the features whose support holds both blocks,
 * ascending, and takes their terms through one simd rankUpdate (the
 * diagonal blocks on a local tile), so every element adds its terms in
 * ascending feature order, exactly as a feature-by-feature elimination
 * does, and the result is deterministic at any thread count. Each block
 * pair is written with the commuted product of its mirror, so the
 * subtraction stays exactly symmetric. The arena holds the per-call
 * pair lists and scaled segments -W U^{-1}, all rewritten on every call
 * (no heap traffic once the arena has grown).
 *
 * @param reduced      q x q accumulator (V with damping already applied).
 * @param rhs          q-dimensional accumulator (by).
 * @param bx           Feature-side rhs (m entries).
 * @param inv_u        Reciprocal damped pivots, m entries.
 * @param block_stride Rows per keyframe block (15 for the window solver).
 * @param segment      Leading rows of a block stored per support entry
 *                     (6 pose rows for the window solver); at most
 *                     block_stride.
 */
void subtractBlockSparseSchur(
    Matrix &reduced, Vector &rhs, const Vector &bx, const double *inv_u,
    std::size_t block_stride, std::size_t segment,
    const std::vector<std::uint32_t> &support_offsets,
    const std::vector<std::uint32_t> &support_blocks,
    const std::vector<double> &w_blocks, common::Arena &arena);

/**
 * Reusable buffers of the M-type Schur path (subtractMSchur and
 * blockedInverseDiagonalM11): M^{-1}, Lambda M^{-1}, the blocks and
 * products of Eq. 5's blocked inverse, and the Cholesky inverse's work.
 * One instance per caller; each call rewrites every buffer it reads.
 */
struct MSchurWork
{
    Matrix minv, lm;
    Matrix m12, m21, m22, m11_inv, t, sprime, sprime_inv, m21_m11inv, bl,
        t_sprime_inv, tl;
    CholeskyInverseWork chol;
};

/**
 * M-type Schur complement in place (marginalization prior, Sec. 3.1
 * step 3): marginalizes the M block of H = [[M, Lambda^T], [Lambda, A]],
 * b = [bm, br], leaving the prior Hp = A - Lambda M^{-1} Lambda^T in a
 * and rp = br - Lambda M^{-1} bm in br. No allocation once work has the
 * shapes.
 *
 * @param a        Retained block on entry, Hp on return.
 * @param br       rhs segment of the retained states on entry, rp on
 *                 return.
 * @param m        Symmetric positive-definite block to marginalize.
 * @param lambda   Coupling block (rows match A, cols match M).
 * @param bm       rhs segment of the marginalized states.
 * @param diag_m11 Dimension of the leading diagonal sub-block of M used
 *                 for the blocked inverse of Eq. 5; 0 selects a plain
 *                 Cholesky inverse.
 * @param work     Reused buffers.
 */
void subtractMSchur(Matrix &a, Vector &br, const Matrix &m,
                    const Matrix &lambda, const Vector &bm,
                    std::size_t diag_m11, MSchurWork &work);

/**
 * Blocked inverse of Eq. 5 into inv: inverts M = [[M11, M12], [M21,
 * M22]] where the leading p x p block M11 is diagonal, with work's block
 * and product buffers. Used to show the cost advantage the paper's
 * M-DFG builder exploits. inv must not be one of work's buffers or
 * alias m.
 */
void blockedInverseDiagonalM11(Matrix &inv, const Matrix &m, std::size_t p,
                               MSchurWork &work);

} // namespace archytas::linalg

#endif // ARCHYTAS_LINALG_SCHUR_HH
