#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

#include "common/fp16.h"
#include "common/logging.h"
#include "core/workspace.h"

namespace fc::core::simd {

namespace {

/**
 * Scalar reference kernels. Each body is the literal loop it replaced
 * in ops/fps.cc, ops/neighbor.cc, nn/mlp.cc or partition/detail.cc
 * (there, std::min/std::max and std::partition) — same expressions,
 * same evaluation order — so forcing this level reproduces the
 * pre-SIMD library bit for bit.
 */

FpsPartial
fpsUpdateScalar(const SoaView &pts, std::uint32_t base, const Vec3 &query,
                float *min_dist, const std::uint8_t *sampled,
                std::uint32_t begin, std::uint32_t end)
{
    FpsPartial p;
    for (std::uint32_t i = begin; i < end; ++i) {
        if (sampled[i]) {
            ++p.sampled;
            continue;
        }
        const std::uint32_t idx = base + i;
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

BallScan
ballScanScalar(const SoaView &pts, const Vec3 &query, float radius2,
               std::uint32_t begin, std::uint32_t end, std::size_t k,
               std::uint32_t *hits)
{
    BallScan s;
    if (k == 0)
        return s;
    for (std::uint32_t pos = begin; pos < end; ++pos) {
        const float dx = query.x - pts.xs[pos];
        const float dy = query.y - pts.ys[pos];
        const float dz = query.z - pts.zs[pos];
        if (dx * dx + dy * dy + dz * dz <= radius2) {
            hits[s.found++] = pos;
            if (s.found == k) {
                s.examined = pos - begin + 1;
                return s;
            }
        }
    }
    s.examined = end - begin;
    return s;
}

void
distance2RangeScalar(const SoaView &pts, const PointIdx *order,
                     std::uint32_t identity_base, const Vec3 &query,
                     std::uint32_t begin, std::uint32_t end, float *out)
{
    for (std::uint32_t i = begin; i < end; ++i) {
        const PointIdx idx =
            order != nullptr ? order[i] : identity_base + i;
        const float dx = query.x - pts.xs[idx];
        const float dy = query.y - pts.ys[idx];
        const float dz = query.z - pts.zs[idx];
        out[i - begin] = dx * dx + dy * dy + dz * dz;
    }
}

std::pair<float, float>
extremaScalar(const float *keys, std::uint32_t begin, std::uint32_t end)
{
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (std::uint32_t i = begin; i < end; ++i) {
        lo = std::min(lo, keys[i]);
        hi = std::max(hi, keys[i]);
    }
    return {lo, hi};
}

/** libstdc++'s bidirectional std::partition, moving all four arrays. */
std::uint32_t
splitBelowScalar(const SplitArrays &arrays, int dim, std::uint32_t begin,
                 std::uint32_t end, float value)
{
    const float *keys = arrays.axis(dim);
    std::uint32_t first = begin;
    std::uint32_t last = end;
    for (;;) {
        for (;; ++first) {
            if (first == last)
                return first;
            if (!(keys[first] < value))
                break;
        }
        --last;
        for (;; --last) {
            if (first == last)
                return first;
            if (keys[last] < value)
                break;
        }
        detail::swapPositions(arrays, first, last);
        ++first;
    }
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

void
linearReluRowsScalar(const float *w, const float *bias, std::size_t in,
                     std::size_t out, const float *x, std::size_t rows,
                     float *y)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float *xin = x + r * in;
        float *yout = y + r * out;
        for (std::size_t o = 0; o < out; ++o) {
            // Output o's weights: lane o % kLinearPanel of its panel.
            const float *wo = w + (o - o % kLinearPanel) * in +
                              o % kLinearPanel;
            // fp32 accumulation over fp16 operands, as in the PE
            // array; the bias seeds the accumulator.
            float acc = bias[o];
            for (std::size_t i = 0; i < in; ++i)
                acc += wo[i * kLinearPanel] * xin[i];
            if (acc < 0.0f)
                acc = 0.0f;
            yout[o] = acc;
        }
        fp16RoundScalar(yout, out);
    }
}

constexpr detail::Kernels kScalarKernels = {
    &fpsUpdateScalar,      &ballScanScalar,   &distance2RangeScalar,
    &extremaScalar,        &splitBelowScalar, &linearReluRowsScalar,
    &axpyScalar,           &fp16RoundScalar,
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

SoaView
soaInto(std::span<const Vec3> coords, Arena &arena)
{
    const std::span<float> xs = arena.allocSpan<float>(coords.size());
    const std::span<float> ys = arena.allocSpan<float>(coords.size());
    const std::span<float> zs = arena.allocSpan<float>(coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i) {
        xs[i] = coords[i].x;
        ys[i] = coords[i].y;
        zs[i] = coords[i].z;
    }
    return {xs.data(), ys.data(), zs.data()};
}

FpsPartial
fpsUpdate(const SoaView &pts, std::uint32_t base, const Vec3 &query,
          float *min_dist, const std::uint8_t *sampled,
          std::uint32_t begin, std::uint32_t end)
{
    return detail::active().fps_update(pts, base, query, min_dist,
                                       sampled, begin, end);
}

BallScan
ballScan(const SoaView &pts, const Vec3 &query, float radius2,
         std::uint32_t begin, std::uint32_t end, std::size_t k,
         std::uint32_t *hits)
{
    return detail::active().ball_scan(pts, query, radius2, begin, end, k,
                                      hits);
}

void
distance2Range(const SoaView &pts, const PointIdx *order,
               std::uint32_t identity_base, const Vec3 &query,
               std::uint32_t begin, std::uint32_t end, float *out)
{
    detail::active().distance2_range(pts, order, identity_base, query,
                                     begin, end, out);
}

std::pair<float, float>
extrema(const float *keys, std::uint32_t begin, std::uint32_t end)
{
    return detail::active().extrema(keys, begin, end);
}

std::uint32_t
splitBelow(const SplitArrays &arrays, int dim, std::uint32_t begin,
           std::uint32_t end, float value)
{
    return detail::active().split_below(arrays, dim, begin, end, value);
}

std::vector<float>
packLinearWeights(const float *w, std::size_t in, std::size_t out)
{
    const std::size_t panels = (out + kLinearPanel - 1) / kLinearPanel;
    std::vector<float> packed(panels * in * kLinearPanel, 0.0f);
    for (std::size_t o = 0; o < out; ++o)
        for (std::size_t i = 0; i < in; ++i)
            packed[(o - o % kLinearPanel) * in + i * kLinearPanel +
                   o % kLinearPanel] = w[o * in + i];
    return packed;
}

void
linearReluRows(const float *w, const float *bias, std::size_t in,
               std::size_t out, const float *x, std::size_t rows,
               float *y)
{
    detail::active().linear_relu_rows(w, bias, in, out, x, rows, y);
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
