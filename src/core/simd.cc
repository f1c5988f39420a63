#include "core/simd.h"

#include <atomic>
#include <cstdlib>

#include "common/fp16.h"
#include "common/logging.h"

namespace fc::core::simd {

namespace {

/**
 * Scalar reference kernels. Each body is the literal loop it replaced
 * in ops/fps.cc, ops/neighbor.cc, or nn/mlp.cc — same expressions,
 * same evaluation order — so forcing this level reproduces the
 * pre-SIMD library bit for bit.
 */

inline PointIdx
candidateIdx(const PointIdx *order, std::uint32_t identity_base,
             std::uint32_t i)
{
    return order != nullptr ? order[i] : identity_base + i;
}

FpsPartial
fpsUpdateScalar(const SoaView &pts, const PointIdx *order,
                std::uint32_t identity_base, const Vec3 &query,
                float *min_dist, const std::uint8_t *sampled,
                std::uint32_t begin, std::uint32_t end)
{
    FpsPartial p;
    for (std::uint32_t i = begin; i < end; ++i) {
        if (sampled[i]) {
            ++p.sampled;
            continue;
        }
        const PointIdx idx = candidateIdx(order, identity_base, i);
        const float dx = query.x - pts.xs[idx];
        const float dy = query.y - pts.ys[idx];
        const float dz = query.z - pts.zs[idx];
        const float d = dx * dx + dy * dy + dz * dz;
        if (d < min_dist[i])
            min_dist[i] = d;
        if (min_dist[i] > p.best) {
            p.best = min_dist[i];
            p.pos = i;
        }
    }
    return p;
}

void
distance2RangeScalar(const SoaView &pts, const PointIdx *order,
                     std::uint32_t identity_base, const Vec3 &query,
                     std::uint32_t begin, std::uint32_t end, float *out)
{
    for (std::uint32_t i = begin; i < end; ++i) {
        const PointIdx idx = candidateIdx(order, identity_base, i);
        const float dx = query.x - pts.xs[idx];
        const float dy = query.y - pts.ys[idx];
        const float dz = query.z - pts.zs[idx];
        out[i - begin] = dx * dx + dy * dy + dz * dz;
    }
}

float
dotAccScalar(float init, const float *a, const float *b, std::size_t n)
{
    float acc = init;
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
axpyScalar(float a, const float *x, float *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
fp16RoundScalar(float *values, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        values[i] = fp16Round(values[i]);
}

constexpr detail::Kernels kScalarKernels = {
    &fpsUpdateScalar, &distance2RangeScalar, &dotAccScalar,
    &axpyScalar,      &fp16RoundScalar,
};

const detail::Kernels *
tableFor(Level level)
{
    if (level == Level::Avx2) {
        const detail::Kernels *avx2 = detail::avx2Kernels();
        if (avx2 != nullptr)
            return avx2;
    }
    return &kScalarKernels;
}

/** The dispatch slot, resolved once from cpuid + FC_FORCE_SCALAR. */
std::atomic<const detail::Kernels *> &
activeSlot()
{
    static std::atomic<const detail::Kernels *> slot{tableFor(
        resolveLevel(avx2Available(), std::getenv("FC_FORCE_SCALAR")))};
    return slot;
}

} // namespace

bool
avx2Available()
{
    return detail::avx2Kernels() != nullptr;
}

Level
resolveLevel(bool avx2_available, const char *force_scalar_env)
{
    if (force_scalar_env != nullptr && force_scalar_env[0] != '\0' &&
        !(force_scalar_env[0] == '0' && force_scalar_env[1] == '\0'))
        return Level::Scalar;
    return avx2_available ? Level::Avx2 : Level::Scalar;
}

Level
activeLevel()
{
    return activeSlot().load(std::memory_order_relaxed) ==
                   &kScalarKernels
               ? Level::Scalar
               : Level::Avx2;
}

bool
setActiveLevel(Level level)
{
    const detail::Kernels *table = tableFor(level);
    activeSlot().store(table, std::memory_order_relaxed);
    return (table == &kScalarKernels) == (level == Level::Scalar);
}

const char *
levelName(Level level)
{
    return level == Level::Avx2 ? "avx2" : "scalar";
}

namespace detail {

const Kernels &
active()
{
    return *activeSlot().load(std::memory_order_relaxed);
}

} // namespace detail

FpsPartial
fpsUpdate(const SoaView &pts, const PointIdx *order,
          std::uint32_t identity_base, const Vec3 &query,
          float *min_dist, const std::uint8_t *sampled,
          std::uint32_t begin, std::uint32_t end)
{
    return detail::active().fps_update(pts, order, identity_base, query,
                                       min_dist, sampled, begin, end);
}

void
distance2Range(const SoaView &pts, const PointIdx *order,
               std::uint32_t identity_base, const Vec3 &query,
               std::uint32_t begin, std::uint32_t end, float *out)
{
    detail::active().distance2_range(pts, order, identity_base, query,
                                     begin, end, out);
}

float
dotAcc(float init, const float *a, const float *b, std::size_t n)
{
    return detail::active().dot_acc(init, a, b, n);
}

void
axpy(float a, const float *x, float *y, std::size_t n)
{
    detail::active().axpy(a, x, y, n);
}

void
fp16RoundBuffer(float *values, std::size_t n)
{
    detail::active().fp16_round(values, n);
}

} // namespace fc::core::simd
