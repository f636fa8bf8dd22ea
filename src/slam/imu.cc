#include "slam/imu.hh"

#include "common/logging.hh"
#include "linalg/cholesky.hh"

namespace archytas::slam {

namespace {

/** Copies a Mat3 into a 9x9 (or larger) matrix block. */
void
setBlock3(linalg::Matrix &m, std::size_t r0, std::size_t c0, const Mat3 &b)
{
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            m(r0 + r, c0 + c) = b(r, c);
}

} // namespace

ImuPreintegration::ImuPreintegration(const Vec3 &bg, const Vec3 &ba,
                                     const ImuNoise &noise)
    : bg_(bg), ba_(ba), noise_(noise), cov_(9, 9)
{
}

void
ImuPreintegration::integrate(const ImuSample &sample)
{
    ARCHYTAS_ASSERT(sample.dt > 0.0, "non-positive IMU dt");
    const double dt = sample.dt;
    const double dt2 = dt * dt;
    const Vec3 w = sample.gyro - bg_;
    const Vec3 a = sample.accel - ba_;

    const Mat3 d_rot = so3Exp(w * dt);
    const Mat3 jr = so3RightJacobian(w * dt);
    const Mat3 a_hat = skew(a);

    // Noise propagation: state [d_theta, d_v, d_p].
    // d_theta' = d_rot^T d_theta + Jr dt n_g
    // d_v'     = d_v - deltaR a^ d_theta dt + deltaR dt n_a
    // d_p'     = d_p + d_v dt - 0.5 deltaR a^ d_theta dt^2 + 0.5 deltaR dt^2 n_a
    linalg::Matrix f(9, 9);
    setBlock3(f, 0, 0, d_rot.transposed());
    setBlock3(f, 3, 0, (delta_r_ * a_hat) * (-dt));
    setBlock3(f, 3, 3, Mat3::identity());
    setBlock3(f, 6, 0, (delta_r_ * a_hat) * (-0.5 * dt2));
    setBlock3(f, 6, 3, Mat3::identity() * dt);
    setBlock3(f, 6, 6, Mat3::identity());

    linalg::Matrix g(9, 6);
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) {
            g(r, c) = jr(r, c) * dt;
            g(3 + r, 3 + c) = delta_r_(r, c) * dt;
            g(6 + r, 3 + c) = delta_r_(r, c) * 0.5 * dt2;
        }

    // Discrete-time measurement covariance.
    const double sg2 = noise_.gyro_noise * noise_.gyro_noise / dt;
    const double sa2 = noise_.accel_noise * noise_.accel_noise / dt;
    linalg::Matrix q(6, 6);
    for (int i = 0; i < 3; ++i) {
        q(i, i) = sg2;
        q(3 + i, 3 + i) = sa2;
    }

    cov_ = f * cov_ * f.transposed() + g * q * g.transposed();

    // Bias Jacobian recursions (order matters: use pre-update deltaR).
    dp_dbg_ = dp_dbg_ + dv_dbg_ * dt - (delta_r_ * a_hat * dr_dbg_) *
                                            (0.5 * dt2);
    dp_dba_ = dp_dba_ + dv_dba_ * dt - delta_r_ * (0.5 * dt2);
    dv_dbg_ = dv_dbg_ - (delta_r_ * a_hat * dr_dbg_) * dt;
    dv_dba_ = dv_dba_ - delta_r_ * dt;
    dr_dbg_ = d_rot.transposed() * dr_dbg_ - jr * dt;

    // Measurement accumulation (use pre-update deltaR for v and p).
    delta_p_ = delta_p_ + delta_v_ * dt + delta_r_ * (a * (0.5 * dt2));
    delta_v_ = delta_v_ + delta_r_ * (a * dt);
    delta_r_ = delta_r_ * d_rot;

    dt_ += dt;
    ++samples_;
    information_valid_ = false;
}

void
ImuPreintegration::integrateAll(const std::vector<ImuSample> &samples)
{
    for (const auto &s : samples)
        integrate(s);
}

linalg::Matrix
ImuPreintegration::biasWalkCovariance() const
{
    linalg::Matrix c(6, 6);
    const double g2 = noise_.gyro_walk * noise_.gyro_walk * dt_;
    const double a2 = noise_.accel_walk * noise_.accel_walk * dt_;
    for (int i = 0; i < 3; ++i) {
        c(i, i) = g2;
        c(3 + i, 3 + i) = a2;
    }
    return c;
}

const linalg::Matrix &
ImuPreintegration::information() const
{
    if (information_valid_)
        return information_;
    // Invert blkdiag(cov_ permuted to [theta, p, v], bias RW).
    linalg::Matrix cov15(15, 15);
    // Permutation map from residual row -> cov_ row ([theta, v, p]).
    const std::size_t perm[9] = {0, 1, 2, 6, 7, 8, 3, 4, 5};
    for (int r = 0; r < 9; ++r)
        for (int c = 0; c < 9; ++c)
            cov15(r, c) = cov_(perm[r], perm[c]);
    const linalg::Matrix bias_cov = biasWalkCovariance();
    for (int r = 0; r < 6; ++r)
        for (int c = 0; c < 6; ++c)
            cov15(9 + r, 9 + c) = bias_cov(r, c);
    // Regularize so short integrations stay invertible.
    for (int i = 0; i < 15; ++i)
        cov15(i, i) += 1e-12;
    information_ = linalg::choleskyInverse(cov15);
    // Symmetrize: the inverse is symmetric analytically but accumulates
    // round-off that would otherwise leak into the normal equations.
    for (int r = 0; r < 15; ++r)
        for (int c = r + 1; c < 15; ++c) {
            const double s =
                0.5 * (information_(r, c) + information_(c, r));
            information_(r, c) = s;
            information_(c, r) = s;
        }
    information_valid_ = true;
    return information_;
}

Mat3
ImuPreintegration::correctedDeltaR(const Vec3 &dbg) const
{
    return delta_r_ * so3Exp(dr_dbg_ * dbg);
}

Vec3
ImuPreintegration::correctedDeltaV(const Vec3 &dbg, const Vec3 &dba) const
{
    return delta_v_ + dv_dbg_ * dbg + dv_dba_ * dba;
}

Vec3
ImuPreintegration::correctedDeltaP(const Vec3 &dbg, const Vec3 &dba) const
{
    return delta_p_ + dp_dbg_ * dbg + dp_dba_ * dba;
}

} // namespace archytas::slam
