/**
 * @file
 * AVX2+FMA+F16C kernel implementations of core/simd.h.
 *
 * This is the only translation unit compiled with -mavx2 -mfma -mf16c
 * (per-file COMPILE_OPTIONS in CMakeLists.txt); everything here is
 * additionally guarded by a cpuid check at runtime, so the library
 * binary stays runnable on plain x86-64. On builds without those
 * flags (other architectures, or a compiler rejecting them),
 * avx2Kernels() returns null and dispatch stays scalar.
 *
 * Bit-identity notes (the contract tests/test_simd.cc asserts):
 *
 *   - fpsUpdate / distance2Range avoid FMA on purpose: each lane
 *     evaluates ((dx*dx + dy*dy) + dz*dz) exactly like the scalar
 *     expression, so per-element distances are bit-equal.
 *   - The running min uses _mm256_min_ps(d, old) = (d < old) ? d : old,
 *     which matches the scalar comparison for every input including
 *     NaNs (a NaN distance keeps the old entry; a NaN entry stays).
 *   - The argmax keeps per-lane running bests with a strictly-greater
 *     compare, then resolves ties cross-lane by smallest index — the
 *     earliest maximal index, exactly the serial tie-break.
 *   - dotAcc uses one fixed accumulation scheme (two 8-lane FMA
 *     accumulators, fixed-order horizontal sum, scalar remainder);
 *     versus the scalar running sum it is ULP-bounded, not bit-equal.
 *   - fp16RoundBuffer's F16C round trip rounds to nearest-even like
 *     the software converter; only NaN payloads may differ.
 */

#include "core/simd.h"

#include "common/fp16.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>

#include <algorithm>

namespace fc::core::simd {

namespace {

/** Fixed-order horizontal sum: (l0+l4)+(l2+l6) pairs first, then the
 *  two remaining partials — one deterministic association. */
inline float
hsum8(__m256 acc)
{
    const __m128 lo = _mm256_castps256_ps128(acc);
    const __m128 hi = _mm256_extractf128_ps(acc, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
    return _mm_cvtss_f32(s);
}

/** 8 candidate positions' coordinates, contiguous or gathered. */
inline void
loadLanes(const SoaView &pts, const PointIdx *order,
          std::uint32_t identity_base, std::uint32_t i, __m256 &px,
          __m256 &py, __m256 &pz)
{
    if (order != nullptr) {
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(order + i));
        px = _mm256_i32gather_ps(pts.xs, idx, 4);
        py = _mm256_i32gather_ps(pts.ys, idx, 4);
        pz = _mm256_i32gather_ps(pts.zs, idx, 4);
    } else {
        px = _mm256_loadu_ps(pts.xs + identity_base + i);
        py = _mm256_loadu_ps(pts.ys + identity_base + i);
        pz = _mm256_loadu_ps(pts.zs + identity_base + i);
    }
}

FpsPartial
fpsUpdateAvx2(const SoaView &pts, const PointIdx *order,
              std::uint32_t identity_base, const Vec3 &query,
              float *min_dist, const std::uint8_t *sampled,
              std::uint32_t begin, std::uint32_t end)
{
    FpsPartial p;
    const __m256 qx = _mm256_set1_ps(query.x);
    const __m256 qy = _mm256_set1_ps(query.y);
    const __m256 qz = _mm256_set1_ps(query.z);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256 best_v = _mm256_set1_ps(-1.0f);
    __m256i bidx_v = _mm256_setzero_si256();
    std::uint32_t i = begin;
    bool any_vec = false;
    for (; i + 8 <= end; i += 8) {
        const __m128i s8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(sampled + i));
        const __m256i s32 = _mm256_cvtepu8_epi32(s8);
        const __m256 smask = _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(s32, _mm256_setzero_si256()));
        p.sampled += static_cast<std::uint32_t>(__builtin_popcount(
            static_cast<unsigned>(_mm256_movemask_ps(smask))));

        __m256 px, py, pz;
        loadLanes(pts, order, identity_base, i, px, py, pz);
        const __m256 dx = _mm256_sub_ps(qx, px);
        const __m256 dy = _mm256_sub_ps(qy, py);
        const __m256 dz = _mm256_sub_ps(qz, pz);
        // Scalar association, no FMA: ((dx*dx + dy*dy) + dz*dz).
        const __m256 d = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz));

        const __m256 old = _mm256_loadu_ps(min_dist + i);
        // (d < old) ? d : old, NaN semantics matching the scalar test.
        const __m256 newmin = _mm256_min_ps(d, old);
        const __m256 upd = _mm256_blendv_ps(newmin, old, smask);
        _mm256_storeu_ps(min_dist + i, upd);

        const __m256 gt = _mm256_cmp_ps(upd, best_v, _CMP_GT_OQ);
        const __m256 take = _mm256_andnot_ps(smask, gt);
        best_v = _mm256_blendv_ps(best_v, upd, take);
        const __m256i cur_iv = _mm256_add_epi32(
            _mm256_set1_epi32(static_cast<int>(i)), lane);
        bidx_v = _mm256_castps_si256(
            _mm256_blendv_ps(_mm256_castsi256_ps(bidx_v),
                             _mm256_castsi256_ps(cur_iv), take));
        any_vec = true;
    }
    if (any_vec) {
        alignas(32) float vals[8];
        alignas(32) std::int32_t idxs[8];
        _mm256_store_ps(vals, best_v);
        _mm256_store_si256(reinterpret_cast<__m256i *>(idxs), bidx_v);
        float m = -1.0f;
        for (int j = 0; j < 8; ++j)
            if (vals[j] > m)
                m = vals[j];
        if (m > p.best) {
            // A lane's stored index is its first occurrence of the
            // lane max, so the smallest index among max lanes is the
            // first global occurrence — the serial tie-break.
            std::uint32_t pos = 0xffffffffu;
            for (int j = 0; j < 8; ++j)
                if (vals[j] == m)
                    pos = std::min(
                        pos, static_cast<std::uint32_t>(idxs[j]));
            p.best = m;
            p.pos = pos;
        }
    }
    // Remainder lanes continue the running argmax in index order.
    for (; i < end; ++i) {
        if (sampled[i]) {
            ++p.sampled;
            continue;
        }
        const PointIdx idx =
            order != nullptr ? order[i] : identity_base + i;
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
distance2RangeAvx2(const SoaView &pts, const PointIdx *order,
                   std::uint32_t identity_base, const Vec3 &query,
                   std::uint32_t begin, std::uint32_t end, float *out)
{
    const __m256 qx = _mm256_set1_ps(query.x);
    const __m256 qy = _mm256_set1_ps(query.y);
    const __m256 qz = _mm256_set1_ps(query.z);
    std::uint32_t i = begin;
    for (; i + 8 <= end; i += 8) {
        __m256 px, py, pz;
        loadLanes(pts, order, identity_base, i, px, py, pz);
        const __m256 dx = _mm256_sub_ps(qx, px);
        const __m256 dy = _mm256_sub_ps(qy, py);
        const __m256 dz = _mm256_sub_ps(qz, pz);
        const __m256 d = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz));
        _mm256_storeu_ps(out + (i - begin), d);
    }
    for (; i < end; ++i) {
        const PointIdx idx =
            order != nullptr ? order[i] : identity_base + i;
        const float dx = query.x - pts.xs[idx];
        const float dy = query.y - pts.ys[idx];
        const float dz = query.z - pts.zs[idx];
        out[i - begin] = dx * dx + dy * dy + dz * dz;
    }
}

float
dotAccAvx2(float init, const float *a, const float *b, std::size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    if (i + 8 <= n) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        i += 8;
    }
    float acc = init + hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
axpyAvx2(float a, const float *x, float *y, std::size_t n)
{
    // Elementwise mul then add (no FMA): bit-identical to the scalar
    // y[i] += a * x[i].
    const __m256 av = _mm256_set1_ps(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(
            y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

constexpr int kRoundNearest =
    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

void
fp16RoundAvx2(float *values, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h =
            _mm256_cvtps_ph(_mm256_loadu_ps(values + i), kRoundNearest);
        _mm256_storeu_ps(values + i, _mm256_cvtph_ps(h));
    }
    for (; i < n; ++i)
        values[i] = fp16Round(values[i]);
}

} // namespace

namespace detail {

const Kernels *
avx2Kernels()
{
    static const Kernels table = {
        &fpsUpdateAvx2, &distance2RangeAvx2, &dotAccAvx2,
        &axpyAvx2,      &fp16RoundAvx2,
    };
    static const bool supported = __builtin_cpu_supports("avx2") &&
                                  __builtin_cpu_supports("fma") &&
                                  __builtin_cpu_supports("f16c");
    return supported ? &table : nullptr;
}

} // namespace detail

} // namespace fc::core::simd

#else // !(__AVX2__ && __FMA__ && __F16C__)

namespace fc::core::simd::detail {

const Kernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace fc::core::simd::detail

#endif
