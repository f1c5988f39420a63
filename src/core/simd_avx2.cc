/**
 * @file
 * AVX2+FMA+F16C kernel implementations of core/simd.h.
 *
 * This translation unit is compiled with -mavx2 -mfma -mf16c
 * (per-file COMPILE_OPTIONS in CMakeLists.txt; simd_avx512.cc, the
 * other kernel TU, holds the AVX-512F MLP kernel). Everything here is
 * additionally guarded by a cpuid check at runtime, so the library
 * binary stays runnable on plain x86-64. On builds without those
 * flags (other architectures, or a compiler rejecting them),
 * avx2Kernels() returns null and dispatch stays scalar.
 *
 * Bit-identity notes (the contract tests/test_simd.cc asserts):
 *
 *   - fpsUpdate / ballScan / distance2Range avoid FMA on purpose: each
 *     lane evaluates ((dx*dx + dy*dy) + dz*dz) exactly like the scalar
 *     expression, so per-element distances are bit-equal.
 *   - ballScan's _CMP_LE_OQ is the scalar d <= radius2: false when
 *     either side is NaN. Each 8-lane hit mask yields its positions
 *     lowest lane first (packed through a 256-entry lane table, or
 *     bit by bit in the step that can reach the k-th hit), so hits
 *     stay ascending and the scan stops exactly where the scalar loop
 *     does.
 *   - extrema folds each lane with _mm256_min_ps(k, lo) /
 *     _mm256_max_ps(k, hi), the scalar std::min(lo, k) /
 *     std::max(hi, k) with NaN keys skipped, and re-reads the range's
 *     first zero when an extremum is zero: the one case where folding
 *     the lanes in another order could pick other bits.
 *   - splitBelow compares with _CMP_LT_OQ, the scalar k < value, and
 *     swaps the misplaced positions in std::partition's order (see
 *     core/simd.h).
 *   - The running min uses _mm256_min_ps(d, old) = (d < old) ? d : old,
 *     which matches the scalar comparison for every input including
 *     NaNs (a NaN distance keeps the old entry; a NaN entry stays).
 *   - The argmax keeps per-lane running bests with a strictly-greater
 *     compare, then resolves ties cross-lane by smallest index — the
 *     earliest maximal index, exactly the serial tie-break.
 *   - linearReluRows (the ymm kernel; the table runs the zmm one of
 *     simd_avx512.cc instead on CPUs with AVX-512F) vectorizes across
 *     the 16 outputs of a packed weight panel, so every lane runs the
 *     scalar loop's own sequence (bias, then one term per ascending
 *     input). Its FMA matches the scalar mul+add because products of
 *     fp16-valued operands are exact in fp32;
 *     _mm256_max_ps(zero, acc) = (0 > acc) ? 0 : acc
 *     keeps NaN and -0 like the scalar acc < 0 ? 0 : acc; and the
 *     F16C round trip is the fp16RoundBuffer one below.
 *   - fp16RoundBuffer's F16C round trip rounds to nearest-even like
 *     the software converter; only NaN payloads may differ.
 */

#include "core/simd.h"

#include "common/fp16.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>

namespace fc::core::simd {

namespace {

/**
 * Squared distances from (qx, qy, qz) to the 8 points whose
 * coordinates are in px/py/pz, with the scalar association and no
 * FMA: ((dx*dx + dy*dy) + dz*dz).
 */
inline __m256
distance8(__m256 qx, __m256 qy, __m256 qz, __m256 px, __m256 py,
          __m256 pz)
{
    const __m256 dx = _mm256_sub_ps(qx, px);
    const __m256 dy = _mm256_sub_ps(qy, py);
    const __m256 dz = _mm256_sub_ps(qz, pz);
    return _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
}

FpsPartial
fpsUpdateAvx2(const SoaView &pts, std::uint32_t base, const Vec3 &query,
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

        const __m256 d = distance8(
            qx, qy, qz, _mm256_loadu_ps(pts.xs + base + i),
            _mm256_loadu_ps(pts.ys + base + i),
            _mm256_loadu_ps(pts.zs + base + i));

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

/**
 * For each 8-lane mask, the indices of its set lanes, lowest first,
 * one per byte.
 */
constexpr std::array<std::uint64_t, 256> kHitLanes = [] {
    std::array<std::uint64_t, 256> table{};
    for (unsigned mask = 0; mask < 256; ++mask) {
        unsigned n = 0;
        for (unsigned lane = 0; lane < 8; ++lane)
            if (mask & (1u << lane))
                table[mask] |= std::uint64_t{lane} << (8 * n++);
    }
    return table;
}();

/** The set lanes of 8-lane @p mask, lowest first, one per int32. */
inline __m256i
maskLanes(unsigned mask)
{
    return _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i *>(&kHitLanes[mask])));
}

BallScan
ballScanAvx2(const SoaView &pts, const Vec3 &query, float radius2,
             std::uint32_t begin, std::uint32_t end, std::size_t k,
             std::uint32_t *hits)
{
    BallScan s;
    if (k == 0)
        return s;
    const __m256 qx = _mm256_set1_ps(query.x);
    const __m256 qy = _mm256_set1_ps(query.y);
    const __m256 qz = _mm256_set1_ps(query.z);
    const __m256 r2 = _mm256_set1_ps(radius2);
    std::uint32_t i = begin;
    for (; i + 8 <= end; i += 8) {
        const __m256 d = distance8(qx, qy, qz, _mm256_loadu_ps(pts.xs + i),
                                   _mm256_loadu_ps(pts.ys + i),
                                   _mm256_loadu_ps(pts.zs + i));
        unsigned mask = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_cmp_ps(d, r2, _CMP_LE_OQ)));
        const std::uint32_t count =
            static_cast<std::uint32_t>(__builtin_popcount(mask));
        if (s.found + 8 <= k && s.found + count < k) {
            // This step cannot reach the k-th hit and 8 slots remain:
            // store 8 positions, the hit lanes packed first, and keep
            // `count` of them. Later hits overwrite the rest.
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(hits + s.found),
                _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(i)),
                                 maskLanes(mask)));
            s.found += count;
            continue;
        }
        // Near k: lowest set bit first, stopping at the k-th hit.
        for (; mask != 0; mask &= mask - 1) {
            const std::uint32_t pos =
                i + static_cast<std::uint32_t>(__builtin_ctz(mask));
            hits[s.found++] = pos;
            if (s.found == k) {
                s.examined = pos - begin + 1;
                return s;
            }
        }
    }
    for (; i < end; ++i) {
        const float dx = query.x - pts.xs[i];
        const float dy = query.y - pts.ys[i];
        const float dz = query.z - pts.zs[i];
        if (dx * dx + dy * dy + dz * dz <= radius2) {
            hits[s.found++] = i;
            if (s.found == k) {
                s.examined = i - begin + 1;
                return s;
            }
        }
    }
    s.examined = end - begin;
    return s;
}

std::pair<float, float>
extremaAvx2(const float *keys, std::uint32_t begin, std::uint32_t end)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    // Two accumulator pairs; _mm256_min_ps(k, lo) = (k < lo) ? k : lo
    // is the scalar std::min(lo, k) per lane, NaN keys skipped.
    __m256 lo0 = _mm256_set1_ps(kInf);
    __m256 hi0 = _mm256_set1_ps(-kInf);
    __m256 lo1 = lo0;
    __m256 hi1 = hi0;
    std::uint32_t i = begin;
    for (; i + 16 <= end; i += 16) {
        const __m256 a = _mm256_loadu_ps(keys + i);
        const __m256 b = _mm256_loadu_ps(keys + i + 8);
        lo0 = _mm256_min_ps(a, lo0);
        hi0 = _mm256_max_ps(a, hi0);
        lo1 = _mm256_min_ps(b, lo1);
        hi1 = _mm256_max_ps(b, hi1);
    }
    if (i + 8 <= end) {
        const __m256 a = _mm256_loadu_ps(keys + i);
        lo0 = _mm256_min_ps(a, lo0);
        hi0 = _mm256_max_ps(a, hi0);
        i += 8;
    }
    alignas(32) float los[8];
    alignas(32) float his[8];
    _mm256_store_ps(los, _mm256_min_ps(lo1, lo0));
    _mm256_store_ps(his, _mm256_max_ps(hi1, hi0));
    float lo = kInf;
    float hi = -kInf;
    for (int j = 0; j < 8; ++j) {
        lo = std::min(lo, los[j]);
        hi = std::max(hi, his[j]);
    }
    for (; i < end; ++i) {
        lo = std::min(lo, keys[i]);
        hi = std::max(hi, keys[i]);
    }
    // Equal floats have equal bits except +0 and -0, and the
    // sequential fold keeps the first of equal keys: a zero extremum
    // is the range's first zero.
    if (lo == 0.0f || hi == 0.0f) {
        std::uint32_t z = begin;
        while (keys[z] != 0.0f)
            ++z;
        if (lo == 0.0f)
            lo = keys[z];
        if (hi == 0.0f)
            hi = keys[z];
    }
    return {lo, hi};
}

std::uint32_t
splitBelowAvx2(const SplitArrays &arrays, int dim, std::uint32_t begin,
               std::uint32_t end, float value)
{
    const float *keys = arrays.axis(dim);
    const __m256 v = _mm256_set1_ps(value);
    // Bit j set when keys[at + j] < value (false for NaN, as in the
    // scalar compare).
    const auto below8 = [&](__m256 k) {
        return static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_cmp_ps(k, v, _CMP_LT_OQ)));
    };

    std::uint32_t mid = begin;
    std::uint32_t i = begin;
    for (; i + 8 <= end; i += 8)
        mid += static_cast<std::uint32_t>(
            __builtin_popcount(below8(_mm256_loadu_ps(keys + i))));
    for (; i < end; ++i)
        mid += keys[i] < value ? 1u : 0u;

    // std::partition swaps the keys >= value in [begin, mid), lowest
    // first, with the keys < value in [mid, end), highest first (see
    // core/simd.h). Collect both in batches: each side scans 8 keys
    // at a time until it holds kBatch positions or its region ends,
    // then the common count is swapped and the rest (fewer than 8)
    // carries over. The counts are equal in total, so when a side has
    // nothing left, neither has the other.
    constexpr std::uint32_t kBatch = 256;
    std::uint32_t left[kBatch + 8];
    std::uint32_t right[kBatch + 8];
    std::uint32_t num_left = 0;
    std::uint32_t num_right = 0;
    std::uint32_t li = begin;
    std::uint32_t ri = end;
    const __m256i reverse = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    for (;;) {
        for (; num_left < kBatch && li + 8 <= mid; li += 8) {
            const unsigned mask =
                ~below8(_mm256_loadu_ps(keys + li)) & 0xffu;
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(left + num_left),
                _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(li)),
                                 maskLanes(mask)));
            num_left += static_cast<std::uint32_t>(__builtin_popcount(mask));
        }
        for (; num_left < kBatch && li < mid; ++li)
            if (!(keys[li] < value))
                left[num_left++] = li;
        for (; num_right < kBatch && ri >= mid + 8; ri -= 8) {
            // Reversed, lane j holds position ri - 1 - j, so the lane
            // table yields the highest position first.
            const unsigned mask = below8(_mm256_permutevar8x32_ps(
                _mm256_loadu_ps(keys + ri - 8), reverse));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(right + num_right),
                _mm256_sub_epi32(
                    _mm256_set1_epi32(static_cast<int>(ri - 1)),
                    maskLanes(mask)));
            num_right +=
                static_cast<std::uint32_t>(__builtin_popcount(mask));
        }
        for (; num_right < kBatch && ri > mid; --ri)
            if (keys[ri - 1] < value)
                right[num_right++] = ri - 1;
        const std::uint32_t pairs = std::min(num_left, num_right);
        if (pairs == 0)
            return mid;
        for (std::uint32_t j = 0; j < pairs; ++j)
            detail::swapPositions(arrays, left[j], right[j]);
        std::copy(left + pairs, left + num_left, left);
        std::copy(right + pairs, right + num_right, right);
        num_left -= pairs;
        num_right -= pairs;
    }
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
        _mm256_storeu_ps(out + (i - begin),
                         distance8(qx, qy, qz, px, py, pz));
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

/** Round 8 floats through binary16 in register (fp16RoundAvx2). */
inline __m256
roundFp16(__m256 v)
{
    return _mm256_cvtph_ps(_mm256_cvtps_ph(v, kRoundNearest));
}

/**
 * One panel of linearReluRows for the sizeof...(R) rows of @p x: the
 * register tile is two accumulators per row, seeded with the panel's
 * 16 biases. Each input step loads the panel's two weight vectors
 * once and broadcasts one input per row. @p lanes (1..16) of every
 * output row are stored; a partial panel's bias comes zero-padded in
 * @p bias and its outputs leave through a stack buffer, so no pointer
 * leaves the caller's arrays.
 */
template <std::size_t... R>
[[gnu::always_inline]] inline void
linearReluTile(std::index_sequence<R...>, const float *panel,
               const float *bias, std::size_t lanes, std::size_t in,
               const float *x, float *y, std::size_t out)
{
    const __m256 bias0 = _mm256_loadu_ps(bias);
    const __m256 bias1 = _mm256_loadu_ps(bias + 8);
    __m256 acc0[] = {((void)R, bias0)...};
    __m256 acc1[] = {((void)R, bias1)...};
    for (std::size_t i = 0; i < in; ++i) {
        const __m256 w0 = _mm256_loadu_ps(panel + i * kLinearPanel);
        const __m256 w1 = _mm256_loadu_ps(panel + i * kLinearPanel + 8);
        const auto step = [&](__m256 &a0, __m256 &a1, const float *xi) {
            const __m256 xv = _mm256_broadcast_ss(xi);
            a0 = _mm256_fmadd_ps(w0, xv, a0);
            a1 = _mm256_fmadd_ps(w1, xv, a1);
        };
        (step(acc0[R], acc1[R], x + R * in + i), ...);
    }
    const __m256 zero = _mm256_setzero_ps();
    const auto store = [&](__m256 a0, __m256 a1, float *yr) {
        a0 = roundFp16(_mm256_max_ps(zero, a0));
        a1 = roundFp16(_mm256_max_ps(zero, a1));
        if (lanes == kLinearPanel) {
            _mm256_storeu_ps(yr, a0);
            _mm256_storeu_ps(yr + 8, a1);
        } else {
            alignas(32) float buf[kLinearPanel];
            _mm256_store_ps(buf, a0);
            _mm256_store_ps(buf + 8, a1);
            std::memcpy(yr, buf, lanes * sizeof(float));
        }
    };
    (store(acc0[R], acc1[R], y + R * out), ...);
}

/** The tile for the last rows % kLinearRowTile rows (@p rows < T). */
template <std::size_t T>
[[gnu::always_inline]] inline void
linearReluTailTile(std::size_t rows, const float *panel,
                   const float *bias, std::size_t lanes, std::size_t in,
                   const float *x, float *y, std::size_t out)
{
    if constexpr (T > 1) {
        if (rows == T - 1)
            linearReluTile(std::make_index_sequence<T - 1>(), panel,
                           bias, lanes, in, x, y, out);
        else
            linearReluTailTile<T - 1>(rows, panel, bias, lanes, in, x,
                                      y, out);
    }
}

/**
 * linearReluRows on ymm registers: panel by panel, the rows in tiles
 * of kLinearRowTile, then one narrower tile for the remainder.
 */
void
linearReluRowsAvx2(const float *w, const float *bias, std::size_t in,
                   std::size_t out, const float *x, std::size_t rows,
                   float *y)
{
    constexpr std::size_t T = kLinearRowTile;
    for (std::size_t o = 0; o < out; o += kLinearPanel) {
        const std::size_t lanes = std::min(kLinearPanel, out - o);
        alignas(32) float padded_bias[kLinearPanel] = {};
        const float *panel_bias = bias + o;
        if (lanes < kLinearPanel) {
            std::memcpy(padded_bias, bias + o, lanes * sizeof(float));
            panel_bias = padded_bias;
        }
        const float *panel = w + o * in;
        std::size_t r = 0;
        for (; r + T <= rows; r += T)
            linearReluTile(std::make_index_sequence<T>(), panel,
                           panel_bias, lanes, in, x + r * in,
                           y + r * out + o, out);
        linearReluTailTile<T>(rows - r, panel, panel_bias, lanes, in,
                              x + r * in, y + r * out + o, out);
    }
}

} // namespace

namespace detail {

const Kernels *
avx2Kernels()
{
    static const LinearReluRowsFn zmm = zmmLinearReluRows();
    static const Kernels table = {
        &fpsUpdateAvx2,      &ballScanAvx2,   &distance2RangeAvx2,
        &extremaAvx2,        &splitBelowAvx2,
        zmm != nullptr ? zmm : &linearReluRowsAvx2,
        &axpyAvx2,           &fp16RoundAvx2,
    };
    static const bool supported = __builtin_cpu_supports("avx2") &&
                                  __builtin_cpu_supports("fma") &&
                                  __builtin_cpu_supports("f16c");
    return supported ? &table : nullptr;
}

LinearReluRowsFn
ymmLinearReluRows()
{
    return avx2Kernels() != nullptr ? &linearReluRowsAvx2 : nullptr;
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

LinearReluRowsFn
ymmLinearReluRows()
{
    return nullptr;
}

} // namespace fc::core::simd::detail

#endif
