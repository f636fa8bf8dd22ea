#include "slam/geometry.hh"

#include <algorithm>

#include "common/logging.hh"

namespace archytas::slam {

Vec3
Vec3::normalized() const
{
    const double n = norm();
    ARCHYTAS_ASSERT(n > 0.0, "cannot normalize zero vector");
    return {x / n, y / n, z / n};
}

Mat3
Mat3::identity()
{
    Mat3 r;
    r(0, 0) = r(1, 1) = r(2, 2) = 1.0;
    return r;
}

Mat3
Mat3::operator+(const Mat3 &o) const
{
    Mat3 r;
    for (int i = 0; i < 9; ++i)
        r.m[i] = m[i] + o.m[i];
    return r;
}

Mat3
Mat3::operator-(const Mat3 &o) const
{
    Mat3 r;
    for (int i = 0; i < 9; ++i)
        r.m[i] = m[i] - o.m[i];
    return r;
}

double
Mat3::maxAbsDiff(const Mat3 &o) const
{
    double worst = 0.0;
    for (int i = 0; i < 9; ++i)
        worst = std::max(worst, std::abs(m[i] - o.m[i]));
    return worst;
}

linalg::Matrix
Mat3::toMatrix() const
{
    linalg::Matrix out(3, 3);
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            out(r, c) = (*this)(r, c);
    return out;
}

Mat3
so3Exp(const Vec3 &omega)
{
    const double theta = omega.norm();
    const Mat3 w = skew(omega);
    if (theta < 1e-10) {
        // Second-order Taylor expansion near the identity.
        return Mat3::identity() + w + (w * w) * 0.5;
    }
    const double a = std::sin(theta) / theta;
    const double b = (1.0 - std::cos(theta)) / (theta * theta);
    return Mat3::identity() + w * a + (w * w) * b;
}

Vec3
so3Log(const Mat3 &r)
{
    const double trace = r(0, 0) + r(1, 1) + r(2, 2);
    const double cos_theta = std::clamp((trace - 1.0) / 2.0, -1.0, 1.0);
    const double theta = std::acos(cos_theta);
    const Vec3 axis_raw{r(2, 1) - r(1, 2), r(0, 2) - r(2, 0),
                        r(1, 0) - r(0, 1)};
    if (theta < 1e-10)
        return axis_raw * 0.5;
    if (theta > M_PI - 1e-6) {
        // Near pi the off-diagonal difference vanishes; recover the axis
        // from the diagonal instead.
        Vec3 axis;
        for (int i = 0; i < 3; ++i)
            axis[i] = std::sqrt(std::max(0.0, (r(i, i) + 1.0) / 2.0));
        // Fix signs using the largest component.
        int imax = 0;
        for (int i = 1; i < 3; ++i)
            if (axis[i] > axis[imax])
                imax = i;
        for (int i = 0; i < 3; ++i) {
            if (i == imax)
                continue;
            const double off = r(imax, i) + r(i, imax);
            if (off < 0.0)
                axis[i] = -axis[i];
        }
        return axis.normalized() * theta;
    }
    return axis_raw * (theta / (2.0 * std::sin(theta)));
}

Mat3
so3RightJacobian(const Vec3 &omega)
{
    const double theta = omega.norm();
    const Mat3 w = skew(omega);
    if (theta < 1e-8)
        return Mat3::identity() - w * 0.5 + (w * w) * (1.0 / 6.0);
    const double t2 = theta * theta;
    const double a = (1.0 - std::cos(theta)) / t2;
    const double b = (theta - std::sin(theta)) / (t2 * theta);
    return Mat3::identity() - w * a + (w * w) * b;
}

Mat3
so3RightJacobianInverse(const Vec3 &omega)
{
    const double theta = omega.norm();
    const Mat3 w = skew(omega);
    if (theta < 1e-8)
        return Mat3::identity() + w * 0.5 + (w * w) * (1.0 / 12.0);
    const double half = theta / 2.0;
    const double cot_term =
        1.0 / (theta * theta) - (1.0 + std::cos(theta)) /
                                    (2.0 * theta * std::sin(theta));
    (void)half;
    return Mat3::identity() + w * 0.5 + (w * w) * cot_term;
}

Quaternion
Quaternion::fromAxisAngle(const Vec3 &omega)
{
    const double theta = omega.norm();
    if (theta < 1e-12)
        return Quaternion(1.0, omega.x / 2.0, omega.y / 2.0, omega.z / 2.0)
            .normalized();
    const double half = theta / 2.0;
    const double s = std::sin(half) / theta;
    return {std::cos(half), omega.x * s, omega.y * s, omega.z * s};
}

Quaternion
Quaternion::operator*(const Quaternion &o) const
{
    return {
        w*o.w - x*o.x - y*o.y - z*o.z,
        w*o.x + x*o.w + y*o.z - z*o.y,
        w*o.y - x*o.z + y*o.w + z*o.x,
        w*o.z + x*o.y - y*o.x + z*o.w,
    };
}

Quaternion
Quaternion::normalized() const
{
    const double n = norm();
    ARCHYTAS_ASSERT(n > 0.0, "cannot normalize zero quaternion");
    return {w / n, x / n, y / n, z / n};
}

Quaternion
Quaternion::fromRotationMatrix(const Mat3 &r)
{
    const double trace = r(0, 0) + r(1, 1) + r(2, 2);
    Quaternion q;
    if (trace > 0.0) {
        const double s = std::sqrt(trace + 1.0) * 2.0;
        q.w = s / 4.0;
        q.x = (r(2, 1) - r(1, 2)) / s;
        q.y = (r(0, 2) - r(2, 0)) / s;
        q.z = (r(1, 0) - r(0, 1)) / s;
    } else if (r(0, 0) > r(1, 1) && r(0, 0) > r(2, 2)) {
        const double s = std::sqrt(1.0 + r(0, 0) - r(1, 1) - r(2, 2)) * 2.0;
        q.w = (r(2, 1) - r(1, 2)) / s;
        q.x = s / 4.0;
        q.y = (r(0, 1) + r(1, 0)) / s;
        q.z = (r(0, 2) + r(2, 0)) / s;
    } else if (r(1, 1) > r(2, 2)) {
        const double s = std::sqrt(1.0 + r(1, 1) - r(0, 0) - r(2, 2)) * 2.0;
        q.w = (r(0, 2) - r(2, 0)) / s;
        q.x = (r(0, 1) + r(1, 0)) / s;
        q.y = s / 4.0;
        q.z = (r(1, 2) + r(2, 1)) / s;
    } else {
        const double s = std::sqrt(1.0 + r(2, 2) - r(0, 0) - r(1, 1)) * 2.0;
        q.w = (r(1, 0) - r(0, 1)) / s;
        q.x = (r(0, 2) + r(2, 0)) / s;
        q.y = (r(1, 2) + r(2, 1)) / s;
        q.z = s / 4.0;
    }
    return q.normalized();
}

Pose
Pose::operator*(const Pose &o) const
{
    return {(q * o.q).normalized(), q.rotate(o.p) + p};
}

Pose
Pose::inverse() const
{
    const Quaternion qi = q.conjugate();
    return {qi, -qi.rotate(p)};
}

void
Pose::applyTangent(const Vec3 &d_theta, const Vec3 &d_p)
{
    q = (q * Quaternion::fromAxisAngle(d_theta)).normalized();
    p += d_p;
}

double
rotationDistance(const Quaternion &a, const Quaternion &b)
{
    const Quaternion d = a.conjugate() * b;
    const double w = std::clamp(std::abs(d.w), 0.0, 1.0);
    return 2.0 * std::acos(w);
}

} // namespace archytas::slam
