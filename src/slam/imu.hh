/**
 * @file
 * IMU preintegration on SO(3) following the standard on-manifold
 * formulation (Forster et al.), which is the measurement model behind the
 * paper's IJac primitive M-DFG node. Between two keyframes the raw
 * gyro/accel samples are compressed into relative rotation/velocity/
 * position pseudo-measurements with first-order bias Jacobians and a
 * propagated noise covariance.
 */

#ifndef ARCHYTAS_SLAM_IMU_HH
#define ARCHYTAS_SLAM_IMU_HH

#include <vector>

#include "slam/geometry.hh"

namespace archytas::slam {

/** One IMU sample: body-frame angular velocity and specific force. */
struct ImuSample
{
    double dt = 0.0;   //!< Integration interval to the next sample (s).
    Vec3 gyro;         //!< rad/s.
    Vec3 accel;        //!< m/s^2 (specific force, gravity included).
};

/** Continuous-time IMU noise densities. */
struct ImuNoise
{
    double gyro_noise = 1.7e-4;    //!< rad/s/sqrt(Hz).
    double accel_noise = 2.0e-3;   //!< m/s^2/sqrt(Hz).
    double gyro_walk = 1.9e-5;     //!< rad/s^2/sqrt(Hz).
    double accel_walk = 3.0e-3;    //!< m/s^3/sqrt(Hz).
};

/**
 * Accumulates IMU samples between two keyframes into preintegrated
 * measurements with bias Jacobians and noise covariance.
 */
class ImuPreintegration
{
  public:
    /**
     * @param bg Gyro bias at linearization (the bias of the older frame).
     * @param ba Accel bias at linearization.
     * @param noise Sensor noise densities for covariance propagation.
     */
    ImuPreintegration(const Vec3 &bg, const Vec3 &ba, const ImuNoise &noise);

    /** Integrates one sample. */
    void integrate(const ImuSample &sample);

    /** Integrates a batch of samples. */
    void integrateAll(const std::vector<ImuSample> &samples);

    double dt() const { return dt_; }
    const Mat3 &deltaR() const { return delta_r_; }
    const Vec3 &deltaV() const { return delta_v_; }
    const Vec3 &deltaP() const { return delta_p_; }

    const Vec3 &biasGyroLin() const { return bg_; }
    const Vec3 &biasAccelLin() const { return ba_; }

    /** Bias Jacobians of the preintegrated measurements. */
    const Mat3 &dRdBg() const { return dr_dbg_; }
    const Mat3 &dVdBg() const { return dv_dbg_; }
    const Mat3 &dVdBa() const { return dv_dba_; }
    const Mat3 &dPdBg() const { return dp_dbg_; }
    const Mat3 &dPdBa() const { return dp_dba_; }

    /**
     * 9x9 covariance of (d_theta, d_v, d_p) accumulated from the sample
     * noise; used to weight the IMU residual.
     */
    const linalg::Matrix &covariance() const { return cov_; }

    /** Bias random-walk covariance accumulated over dt (6x6 diagonal). */
    linalg::Matrix biasWalkCovariance() const;

    /**
     * 15x15 weight of the IMU factor residual [r_theta, r_p, r_v, r_bg,
     * r_ba]: the symmetrized inverse of blkdiag(covariance() permuted to
     * [theta, p, v], biasWalkCovariance()), regularized so short
     * integrations stay invertible. It depends only on the integrated
     * samples, so it is computed on first use and cached until the next
     * integrate(). The cache is unsynchronized: one session's factor
     * loops are serial, and no two threads may call this on the same
     * preintegration at once.
     */
    const linalg::Matrix &information() const;

    /** Number of samples integrated. */
    std::size_t sampleCount() const { return samples_; }

    /**
     * Bias-corrected preintegrated rotation for a gyro bias that moved by
     * dbg since linearization: deltaR * Exp(dRdBg * dbg).
     */
    Mat3 correctedDeltaR(const Vec3 &dbg) const;
    Vec3 correctedDeltaV(const Vec3 &dbg, const Vec3 &dba) const;
    Vec3 correctedDeltaP(const Vec3 &dbg, const Vec3 &dba) const;

  private:
    Vec3 bg_, ba_;
    ImuNoise noise_;

    double dt_ = 0.0;
    Mat3 delta_r_ = Mat3::identity();
    Vec3 delta_v_;
    Vec3 delta_p_;

    Mat3 dr_dbg_;
    Mat3 dv_dbg_, dv_dba_;
    Mat3 dp_dbg_, dp_dba_;

    linalg::Matrix cov_;
    std::size_t samples_ = 0;

    mutable linalg::Matrix information_;     //!< Cache of information().
    mutable bool information_valid_ = false;
};

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_IMU_HH
