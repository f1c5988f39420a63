/**
 * @file
 * Fundamental geometric types shared across the FractalCloud library.
 */

#ifndef FC_COMMON_TYPES_H
#define FC_COMMON_TYPES_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>

namespace fc {

/** Index of a point inside a point cloud. */
using PointIdx = std::uint32_t;

/** Sentinel for "no point". */
inline constexpr PointIdx kInvalidPoint =
    std::numeric_limits<PointIdx>::max();

/**
 * A 3-component single-precision vector.
 *
 * Used for both spatial coordinates and generic 3D arithmetic. Kept
 * deliberately small (12 bytes, trivially copyable) so point clouds can
 * store millions of them contiguously.
 */
struct Vec3
{
    float x = 0.0f;
    float y = 0.0f;
    float z = 0.0f;

    constexpr Vec3() = default;
    constexpr Vec3(float xx, float yy, float zz) : x(xx), y(yy), z(zz) {}

    constexpr float operator[](int dim) const
    {
        return dim == 0 ? x : (dim == 1 ? y : z);
    }

    float &
    at(int dim)
    {
        return dim == 0 ? x : (dim == 1 ? y : z);
    }

    constexpr Vec3
    operator+(const Vec3 &o) const
    {
        return {x + o.x, y + o.y, z + o.z};
    }

    constexpr Vec3
    operator-(const Vec3 &o) const
    {
        return {x - o.x, y - o.y, z - o.z};
    }

    constexpr Vec3
    operator*(float s) const
    {
        return {x * s, y * s, z * s};
    }

    Vec3 &
    operator+=(const Vec3 &o)
    {
        x += o.x;
        y += o.y;
        z += o.z;
        return *this;
    }

    constexpr bool
    operator==(const Vec3 &o) const
    {
        return x == o.x && y == o.y && z == o.z;
    }

    /** Squared Euclidean norm. */
    constexpr float norm2() const { return x * x + y * y + z * z; }

    /** Euclidean norm. */
    float norm() const { return std::sqrt(norm2()); }
};

/** Squared Euclidean distance between two points. */
constexpr float
distance2(const Vec3 &a, const Vec3 &b)
{
    const float dx = a.x - b.x;
    const float dy = a.y - b.y;
    const float dz = a.z - b.z;
    return dx * dx + dy * dy + dz * dz;
}

/** Euclidean distance between two points. */
inline float
distance(const Vec3 &a, const Vec3 &b)
{
    return std::sqrt(distance2(a, b));
}

inline std::ostream &
operator<<(std::ostream &os, const Vec3 &v)
{
    return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

/**
 * Axis-aligned bounding box.
 *
 * The empty box is represented with +inf/-inf extrema so that extending
 * by any point yields a valid box.
 */
struct Aabb
{
    Vec3 lo{std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::infinity()};
    Vec3 hi{-std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity()};

    bool empty() const { return lo.x > hi.x; }

    void
    extend(const Vec3 &p)
    {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
        hi.z = std::max(hi.z, p.z);
    }

    /** Per-axis merge: an axis @p o never saw (+inf/-inf, e.g. a
     *  box of points that are all NaN there) leaves this axis as is,
     *  while its other axes still merge. */
    void
    extend(const Aabb &o)
    {
        lo.x = std::min(lo.x, o.lo.x);
        lo.y = std::min(lo.y, o.lo.y);
        lo.z = std::min(lo.z, o.lo.z);
        hi.x = std::max(hi.x, o.hi.x);
        hi.y = std::max(hi.y, o.hi.y);
        hi.z = std::max(hi.z, o.hi.z);
    }

    bool
    contains(const Vec3 &p) const
    {
        return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
               p.z >= lo.z && p.z <= hi.z;
    }

    Vec3
    center() const
    {
        return {(lo.x + hi.x) * 0.5f, (lo.y + hi.y) * 0.5f,
                (lo.z + hi.z) * 0.5f};
    }

    Vec3 extent() const { return hi - lo; }

    /**
     * Midpoint of one axis: (max+min)/2, the Fractal split value.
     * Halve-then-add: the naive sum overflows to inf for spans
     * beyond FLT_MAX (identical rounding for normal floats, since
     * halving just steps the exponent).
     */
    float
    midpoint(int dim) const
    {
        return lo[dim] * 0.5f + hi[dim] * 0.5f;
    }

    /** Longest axis index (0=x, 1=y, 2=z). */
    int
    longestAxis() const
    {
        const Vec3 e = extent();
        if (e.x >= e.y && e.x >= e.z)
            return 0;
        return e.y >= e.z ? 1 : 2;
    }
};

} // namespace fc

#endif // FC_COMMON_TYPES_H
