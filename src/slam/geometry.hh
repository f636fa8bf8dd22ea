/**
 * @file
 * Minimal fixed-size 3D geometry: vectors, rotation matrices, quaternions,
 * the SO(3) exponential/logarithm maps, and rigid-body poses. This is the
 * mathematical bedrock of the MAP estimation substrate; everything is
 * implemented from scratch (no external geometry library) and unit-tested
 * against first principles.
 */

#ifndef ARCHYTAS_SLAM_GEOMETRY_HH
#define ARCHYTAS_SLAM_GEOMETRY_HH

#include <array>
#include <cmath>
#include <cstddef>

#include "linalg/matrix.hh"

namespace archytas::slam {

/** Fixed-size 3-vector. */
struct Vec3
{
    double x = 0.0, y = 0.0, z = 0.0;

    Vec3() = default;
    Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

    double operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
    double &operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }

    Vec3 operator+(const Vec3 &o) const { return {x+o.x, y+o.y, z+o.z}; }
    Vec3 operator-(const Vec3 &o) const { return {x-o.x, y-o.y, z-o.z}; }
    Vec3 operator*(double s) const { return {x*s, y*s, z*s}; }
    Vec3 operator-() const { return {-x, -y, -z}; }
    Vec3 &operator+=(const Vec3 &o) { x+=o.x; y+=o.y; z+=o.z; return *this; }
    Vec3 &operator-=(const Vec3 &o) { x-=o.x; y-=o.y; z-=o.z; return *this; }

    double dot(const Vec3 &o) const { return x*o.x + y*o.y + z*o.z; }
    Vec3
    cross(const Vec3 &o) const
    {
        return {y*o.z - z*o.y, z*o.x - x*o.z, x*o.y - y*o.x};
    }
    double norm() const { return std::sqrt(dot(*this)); }
    Vec3 normalized() const;
};

inline Vec3 operator*(double s, const Vec3 &v) { return v * s; }

/** Fixed-size 3x3 matrix (row-major). */
struct Mat3
{
    std::array<double, 9> m{};

    static Mat3 identity();
    static Mat3 zero() { return Mat3{}; }

    double operator()(int r, int c) const { return m[r * 3 + c]; }
    double &operator()(int r, int c) { return m[r * 3 + c]; }

    Mat3 operator+(const Mat3 &o) const;
    Mat3 operator-(const Mat3 &o) const;

    // The products, the transpose, skew, the quaternion rotations and
    // Pose::inverseTransform are defined in this header so the
    // per-observation factor code inlines them.
    Mat3
    operator*(const Mat3 &o) const
    {
        Mat3 r;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j) {
                double acc = 0.0;
                for (int k = 0; k < 3; ++k)
                    acc += (*this)(i, k) * o(k, j);
                r(i, j) = acc;
            }
        return r;
    }

    Vec3
    operator*(const Vec3 &v) const
    {
        return {
            (*this)(0,0)*v.x + (*this)(0,1)*v.y + (*this)(0,2)*v.z,
            (*this)(1,0)*v.x + (*this)(1,1)*v.y + (*this)(1,2)*v.z,
            (*this)(2,0)*v.x + (*this)(2,1)*v.y + (*this)(2,2)*v.z,
        };
    }

    Mat3
    operator*(double s) const
    {
        Mat3 r;
        for (int i = 0; i < 9; ++i)
            r.m[i] = m[i] * s;
        return r;
    }

    Mat3
    transposed() const
    {
        Mat3 r;
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 3; ++j)
                r(i, j) = (*this)(j, i);
        return r;
    }

    /** Frobenius-norm distance to another matrix. */
    double maxAbsDiff(const Mat3 &o) const;

    /** Copies into a general linalg::Matrix. */
    linalg::Matrix toMatrix() const;
};

/**
 * Fixed-size row-major R x C block of doubles: the visual factor's
 * Jacobian blocks, held inline (no heap) and read through row pointers
 * on the assembly hot path. Element access is bounds-checked in
 * contract builds, like linalg::Matrix.
 */
template <std::size_t R, std::size_t C>
struct FixedMatrix
{
    std::array<double, R * C> m{};

    double
    operator()(std::size_t r, std::size_t c) const
    {
        ARCHYTAS_CHECK_BOUNDS("FixedMatrix row", r, R);
        ARCHYTAS_CHECK_BOUNDS("FixedMatrix col", c, C);
        return m[r * C + c];
    }

    double &
    operator()(std::size_t r, std::size_t c)
    {
        ARCHYTAS_CHECK_BOUNDS("FixedMatrix row", r, R);
        ARCHYTAS_CHECK_BOUNDS("FixedMatrix col", c, C);
        return m[r * C + c];
    }

    /** Row r's C contiguous entries. */
    const double *
    row(std::size_t r) const
    {
        ARCHYTAS_CHECK_BOUNDS("FixedMatrix::row", r, R);
        return m.data() + r * C;
    }
};

/** Skew-symmetric (hat) operator: skew(v) w == v x w. */
inline Mat3
skew(const Vec3 &v)
{
    Mat3 s;
    s(0, 1) = -v.z; s(0, 2) =  v.y;
    s(1, 0) =  v.z; s(1, 2) = -v.x;
    s(2, 0) = -v.y; s(2, 1) =  v.x;
    return s;
}

/** SO(3) exponential map: rotation matrix from an axis-angle vector. */
Mat3 so3Exp(const Vec3 &omega);

/** SO(3) logarithm map: axis-angle vector of a rotation matrix. */
Vec3 so3Log(const Mat3 &r);

/**
 * Right Jacobian of SO(3): relates additive perturbations of the axis-angle
 * parameter to multiplicative perturbations of the rotation. Used by the
 * IMU preintegration Jacobians.
 */
Mat3 so3RightJacobian(const Vec3 &omega);

/** Inverse of the right Jacobian. */
Mat3 so3RightJacobianInverse(const Vec3 &omega);

/** Unit quaternion (w, x, y, z). */
struct Quaternion
{
    double w = 1.0, x = 0.0, y = 0.0, z = 0.0;

    Quaternion() = default;
    Quaternion(double w_, double x_, double y_, double z_)
        : w(w_), x(x_), y(y_), z(z_) {}

    static Quaternion fromAxisAngle(const Vec3 &omega);

    Quaternion operator*(const Quaternion &o) const;
    Quaternion conjugate() const { return {w, -x, -y, -z}; }
    double norm() const { return std::sqrt(w*w + x*x + y*y + z*z); }
    Quaternion normalized() const;

    Vec3
    rotate(const Vec3 &v) const
    {
        // v' = v + 2 w (u x v) + 2 u x (u x v), u = (x, y, z).
        const Vec3 u{x, y, z};
        const Vec3 t = u.cross(v) * 2.0;
        return v + t * w + u.cross(t);
    }

    Mat3
    toRotationMatrix() const
    {
        Mat3 r;
        const double xx = x*x, yy = y*y, zz = z*z;
        const double xy = x*y, xz = x*z, yz = y*z;
        const double wx = w*x, wy = w*y, wz = w*z;
        r(0,0) = 1 - 2*(yy + zz);
        r(0,1) = 2*(xy - wz);
        r(0,2) = 2*(xz + wy);
        r(1,0) = 2*(xy + wz);
        r(1,1) = 1 - 2*(xx + zz);
        r(1,2) = 2*(yz - wx);
        r(2,0) = 2*(xz - wy);
        r(2,1) = 2*(yz + wx);
        r(2,2) = 1 - 2*(xx + yy);
        return r;
    }

    static Quaternion fromRotationMatrix(const Mat3 &r);
};

/** Rigid-body pose: rotation (body->world) and translation (in world). */
struct Pose
{
    Quaternion q;   //!< Rotation body -> world.
    Vec3 p;         //!< Position of the body origin in world.

    Pose() = default;
    Pose(const Quaternion &q_, const Vec3 &p_) : q(q_), p(p_) {}

    /** Composition: this * other (apply other in this' body frame). */
    Pose operator*(const Pose &o) const;
    Pose inverse() const;

    /** Maps a point from body frame to world frame. */
    Vec3 transform(const Vec3 &pt) const { return q.rotate(pt) + p; }
    /** Maps a point from world frame to body frame. */
    Vec3
    inverseTransform(const Vec3 &pt) const
    {
        return q.conjugate().rotate(pt - p);
    }

    /**
     * Applies a 6-DoF tangent update [d_theta(3), d_p(3)]: rotation is
     * right-perturbed (q <- q * exp(d_theta)), translation is additive.
     */
    void applyTangent(const Vec3 &d_theta, const Vec3 &d_p);
};

/** Geodesic rotation distance in radians. */
double rotationDistance(const Quaternion &a, const Quaternion &b);

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_GEOMETRY_HH
