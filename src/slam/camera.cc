#include "slam/camera.hh"

#include "common/logging.hh"

namespace archytas::slam {

std::optional<Vec2>
PinholeCamera::project(const Vec3 &pc) const
{
    if (pc.z < min_depth)
        return std::nullopt;
    const Vec2 px = projectUnchecked(pc);
    if (px.u < 0.0 || px.u >= width || px.v < 0.0 || px.v >= height)
        return std::nullopt;
    return px;
}

Vec2
PinholeCamera::projectUnchecked(const Vec3 &pc) const
{
    ARCHYTAS_ASSERT(pc.z != 0.0, "projecting a zero-depth point");
    return {fx * pc.x / pc.z + cx, fy * pc.y / pc.z + cy};
}

linalg::Matrix
PinholeCamera::projectionJacobian(const Vec3 &pc) const
{
    FixedMatrix<2, 3> fixed;
    projectionJacobianInto(fixed, pc);
    linalg::Matrix j(2, 3);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            j(r, c) = fixed(r, c);
    return j;
}

void
PinholeCamera::projectionJacobianInto(FixedMatrix<2, 3> &j,
                                      const Vec3 &pc) const
{
    ARCHYTAS_ASSERT(pc.z != 0.0, "Jacobian of a zero-depth point");
    const double iz = 1.0 / pc.z;
    const double iz2 = iz * iz;
    j(0, 0) = fx * iz;
    j(0, 1) = 0.0;
    j(0, 2) = -fx * pc.x * iz2;
    j(1, 0) = 0.0;
    j(1, 1) = fy * iz;
    j(1, 2) = -fy * pc.y * iz2;
}

Vec3
PinholeCamera::bearing(const Vec2 &px) const
{
    return {(px.u - cx) / fx, (px.v - cy) / fy, 1.0};
}

} // namespace archytas::slam
