/**
 * @file
 * Pinhole camera model. Projects camera-frame points to pixels and
 * provides the projection Jacobian needed by the visual factor (the VJac
 * primitive M-DFG node computes exactly these derivatives in hardware).
 */

#ifndef ARCHYTAS_SLAM_CAMERA_HH
#define ARCHYTAS_SLAM_CAMERA_HH

#include <optional>

#include "slam/geometry.hh"

namespace archytas::slam {

/** 2D pixel coordinate. */
struct Vec2
{
    double u = 0.0, v = 0.0;

    Vec2() = default;
    Vec2(double u_, double v_) : u(u_), v(v_) {}

    Vec2 operator-(const Vec2 &o) const { return {u - o.u, v - o.v}; }
    Vec2 operator+(const Vec2 &o) const { return {u + o.u, v + o.v}; }
    double norm() const { return std::sqrt(u * u + v * v); }
};

/** Pinhole intrinsics with a principal point and image bounds. */
struct PinholeCamera
{
    double fx = 460.0;
    double fy = 460.0;
    double cx = 376.0;
    double cy = 240.0;
    double width = 752.0;
    double height = 480.0;
    /** Points closer than this along +z are rejected. */
    double min_depth = 0.1;

    /**
     * Projects a camera-frame point to pixel coordinates.
     * @return std::nullopt when behind the camera or out of the image.
     */
    std::optional<Vec2> project(const Vec3 &pc) const;

    /** Projects without the visibility test (for residual evaluation). */
    Vec2 projectUnchecked(const Vec3 &pc) const;

    /**
     * Jacobian of the pixel coordinates w.r.t. the camera-frame point:
     * a 2 x 3 matrix [du/dpc; dv/dpc].
     */
    linalg::Matrix projectionJacobian(const Vec3 &pc) const;

    /**
     * Destination-passing Jacobian into fixed-size storage: overwrites
     * every entry of j, allocation-free (assembly hot path). The
     * allocating variant above wraps this one.
     */
    void projectionJacobianInto(FixedMatrix<2, 3> &j, const Vec3 &pc) const;

    /** Back-projects a pixel to the unit-depth bearing [x, y, 1]. */
    Vec3 bearing(const Vec2 &px) const;
};

} // namespace archytas::slam

#endif // ARCHYTAS_SLAM_CAMERA_HH
