/**
 * @file
 * AVX-512F kernels of core/simd.h: the Avx2 table's fpsLeaf, ballScan
 * and linearReluRows entries on CPUs with AVX-512F.
 *
 * This is the only translation unit compiled with -mavx512f
 * (per-file COMPILE_OPTIONS in CMakeLists.txt, beside -mfma -mf16c);
 * installZmmKernels() adds a cpuid check at runtime, and simd_avx2.cc
 * builds the zmm table from its ymm one with it, once. On builds
 * without those flags it installs nothing and the Avx2 table keeps
 * its ymm kernels.
 *
 * fpsLeaf and ballScan run 16 points per step under a lane mask, so a
 * block's last partial step needs no scalar tail: masked loads read
 * no memory in the lanes they leave out. Distances keep the scalar
 * association with no FMA, ((dx*dx + dy*dy) + dz*dz), so each lane's
 * distance is the scalar one bit for bit.
 *
 *   - ballScan compares with _CMP_LE_OQ, the scalar d <= radius2 (a
 *     NaN distance never hits), and writes each step's hits with the
 *     memory form of vpcompressd, which keeps lane order and stores
 *     only the hit lanes: hits stay ascending and nothing lands past
 *     the k-th slot. Only the step that reaches the k-th hit runs the
 *     bit-by-bit loop, to stop exactly where the scalar loop does.
 *   - fpsLeaf keeps the contract of core/simd.h. Its two reductions
 *     per sweep are full-width shuffles: GCC 12's _mm512_reduce_*
 *     helpers pass _mm256_undefined_* operands that
 *     -Wmaybe-uninitialized reports.
 *
 * One zmm register holds one packed 16-output panel, so the MLP kernel
 * reads packLinearWeights' layout as the ymm kernel does. Its register
 * tile is kLinearRowTileZmm rows x 2 panels (16 accumulators); an odd
 * last panel runs a one-panel tile, and the layer's last panel, when
 * partial, loads its biases and stores its outputs under a lane mask.
 *
 * Bit-identity of the MLP kernel (the contract tests/test_simd.cc
 * asserts): every lane runs the scalar loop's sequence. The bias seeds
 * the accumulator, then one FMA per ascending input, which rounds like
 * the scalar mul+add because a product of two fp16 values is exact in
 * fp32. The ReLU is max(zero, acc) = (0 > acc) ? 0 : acc (vmaxps),
 * which keeps NaN and -0 like the scalar acc < 0 ? 0 : acc. The fp16
 * rounding is the _mm512_cvtps_ph / _mm512_cvtph_ps round trip, round
 * to nearest even like the F16C one in simd_avx2.cc.
 *
 * GCC 12's unmasked forms of several intrinsics used here (max, min,
 * the shuffles, the fp16 conversions) pass an _mm512_undefined_*()
 * operand that -Wmaybe-uninitialized reports wherever they inline, so
 * they are spelled as the zero-masking forms with every lane set: the
 * same instructions. Lane 0 leaves through _mm512_cvtsi512_si32, not
 * _mm512_castsi512_si128, which GCC 12 spells as such an extract.
 */

#include "core/simd.h"

#if defined(__AVX512F__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>

#include <limits>
#include <utility>

namespace fc::core::simd {

namespace {

constexpr int kRoundNearest =
    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
constexpr __mmask16 kAllLanes = 0xffff;

/** The first @p count lanes (all 16 from 16 on). */
inline __mmask16
firstLanes(std::uint32_t count)
{
    return count >= 16 ? kAllLanes
                       : static_cast<__mmask16>((1u << count) - 1);
}

/**
 * Squared distances from (qx, qy, qz) to the lanes @p in of the 16
 * points at @p at of @p xs / @p ys / @p zs, with the scalar association
 * and no FMA. The other lanes read no memory and hold junk.
 */
inline __m512
distance16(__m512 qx, __m512 qy, __m512 qz, const float *xs,
           const float *ys, const float *zs, std::uint32_t at,
           __mmask16 in)
{
    const __m512 dx = _mm512_sub_ps(qx, _mm512_maskz_loadu_ps(in, xs + at));
    const __m512 dy = _mm512_sub_ps(qy, _mm512_maskz_loadu_ps(in, ys + at));
    const __m512 dz = _mm512_sub_ps(qz, _mm512_maskz_loadu_ps(in, zs + at));
    return _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
        _mm512_mul_ps(dz, dz));
}

BallScan
ballScanZmm(const SoaView &pts, const Vec3 &query, float radius2,
            std::uint32_t begin, std::uint32_t end, std::size_t k,
            std::uint32_t *hits)
{
    BallScan s;
    if (k == 0)
        return s;
    const __m512 qx = _mm512_set1_ps(query.x);
    const __m512 qy = _mm512_set1_ps(query.y);
    const __m512 qz = _mm512_set1_ps(query.z);
    const __m512 r2 = _mm512_set1_ps(radius2);
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15);
    for (std::uint32_t i = begin; i < end; i += 16) {
        const __mmask16 in = firstLanes(end - i);
        unsigned mask = _mm512_mask_cmp_ps_mask(
            in, distance16(qx, qy, qz, pts.xs, pts.ys, pts.zs, i, in), r2,
            _CMP_LE_OQ);
        const auto count =
            static_cast<std::uint32_t>(__builtin_popcount(mask));
        if (s.found + count < k) {
            // This step cannot reach the k-th hit: store its hit
            // positions, lowest lane first, and only those.
            _mm512_mask_compressstoreu_epi32(
                hits + s.found, static_cast<__mmask16>(mask),
                _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(i)),
                                 lane));
            s.found += count;
            continue;
        }
        // The k-th hit is in this step: lowest set bit first, stopping
        // there.
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
    s.examined = end - begin;
    return s;
}

/**
 * The greatest of the 16 lanes of @p best (never NaN), and the
 * smallest of the positions @p at holds in the lanes that reach it:
 * each step halves the lanes still apart (256-bit halves, 128-bit
 * quarters, pairs, neighbors).
 */
inline std::uint32_t
argmax16(__m512 best, __m512i at)
{
    __m512 top = _mm512_maskz_max_ps(
        kAllLanes, best,
        _mm512_maskz_shuffle_f32x4(kAllLanes, best, best,
                                   _MM_SHUFFLE(1, 0, 3, 2)));
    top = _mm512_maskz_max_ps(
        kAllLanes, top,
        _mm512_maskz_shuffle_f32x4(kAllLanes, top, top,
                                   _MM_SHUFFLE(2, 3, 0, 1)));
    top = _mm512_maskz_max_ps(
        kAllLanes, top,
        _mm512_maskz_permute_ps(kAllLanes, top, _MM_SHUFFLE(1, 0, 3, 2)));
    top = _mm512_maskz_max_ps(
        kAllLanes, top,
        _mm512_maskz_permute_ps(kAllLanes, top, _MM_SHUFFLE(2, 3, 0, 1)));
    at = _mm512_mask_mov_epi32(_mm512_set1_epi32(-1),
                               _mm512_cmp_ps_mask(best, top, _CMP_EQ_OQ),
                               at);
    at = _mm512_maskz_min_epu32(
        kAllLanes, at,
        _mm512_maskz_shuffle_i32x4(kAllLanes, at, at,
                                   _MM_SHUFFLE(1, 0, 3, 2)));
    at = _mm512_maskz_min_epu32(
        kAllLanes, at,
        _mm512_maskz_shuffle_i32x4(kAllLanes, at, at,
                                   _MM_SHUFFLE(2, 3, 0, 1)));
    at = _mm512_maskz_min_epu32(
        kAllLanes, at,
        _mm512_maskz_shuffle_epi32(kAllLanes, at, _MM_PERM_BADC));
    at = _mm512_maskz_min_epu32(
        kAllLanes, at,
        _mm512_maskz_shuffle_epi32(kAllLanes, at, _MM_PERM_CDAB));
    return static_cast<std::uint32_t>(_mm512_cvtsi512_si32(at));
}

void
fpsLeafZmm(const SoaView &pts, std::uint32_t begin, std::uint32_t end,
           std::size_t quota, float *min_dist, std::uint32_t *positions)
{
    constexpr float kSampled = -std::numeric_limits<float>::infinity();
    const std::uint32_t n = end - begin;
    const float *xs = pts.xs + begin;
    const float *ys = pts.ys + begin;
    const float *zs = pts.zs + begin;
    const __m512 far = _mm512_set1_ps(std::numeric_limits<float>::max());
    for (std::uint32_t i = 0; i < n; i += 16)
        _mm512_mask_storeu_ps(min_dist + i, firstLanes(n - i), far);
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15);
    std::uint32_t current = 0;
    positions[0] = begin;
    min_dist[0] = kSampled;
    for (std::size_t s = 1; s < quota; ++s) {
        const __m512 qx = _mm512_set1_ps(xs[current]);
        const __m512 qy = _mm512_set1_ps(ys[current]);
        const __m512 qz = _mm512_set1_ps(zs[current]);
        __m512 best = _mm512_set1_ps(-1.0f);
        __m512i best_at = _mm512_setzero_si512();
        for (std::uint32_t i = 0; i < n; i += 16) {
            const __mmask16 in = firstLanes(n - i);
            const __m512 m = _mm512_maskz_min_ps(
                kAllLanes, distance16(qx, qy, qz, xs, ys, zs, i, in),
                _mm512_maskz_loadu_ps(in, min_dist + i));
            _mm512_mask_storeu_ps(min_dist + i, in, m);
            const __mmask16 gt =
                _mm512_mask_cmp_ps_mask(in, m, best, _CMP_GT_OQ);
            best = _mm512_mask_mov_ps(best, gt, m);
            best_at = _mm512_mask_mov_epi32(
                best_at, gt,
                _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(i)),
                                 lane));
        }
        current = argmax16(best, best_at);
        positions[s] = begin + current;
        min_dist[current] = kSampled;
    }
}

/** ReLU, then binary16 rounding, of one panel's accumulators:
 *  max(zero, acc), then the cvtps_ph / cvtph_ps round trip. */
inline __m512
reluRound(__m512 acc)
{
    const __m512 relu =
        _mm512_maskz_max_ps(kAllLanes, _mm512_setzero_ps(), acc);
    return _mm512_maskz_cvtph_ps(
        kAllLanes, _mm512_maskz_cvtps_ph(kAllLanes, relu, kRoundNearest));
}

/**
 * One tile of linearReluRows: the sizeof...(R) rows of @p x against
 * the panel at @p w0 and, when Pair, the next one. One accumulator per
 * row and panel, seeded with the panel's biases @p b0 / @p b1. Each
 * input step loads each panel's weights once and broadcasts one input
 * per row. The tile's last panel stores only the lanes of @p last.
 */
template <bool Pair, std::size_t... R>
[[gnu::always_inline]] inline void
zmmTile(std::index_sequence<R...>, const float *w0, __m512 b0,
        __m512 b1, __mmask16 last, std::size_t in, const float *x,
        float *y, std::size_t out)
{
    __m512 acc0[] = {((void)R, b0)...};
    [[maybe_unused]] __m512 acc1[] = {((void)R, b1)...};
    for (std::size_t i = 0; i < in; ++i) {
        const __m512 v0 = _mm512_loadu_ps(w0 + i * kLinearPanel);
        if constexpr (Pair) {
            const __m512 v1 =
                _mm512_loadu_ps(w0 + (in + i) * kLinearPanel);
            const auto step = [&](__m512 &a0, __m512 &a1, float xi) {
                const __m512 xv = _mm512_set1_ps(xi);
                a0 = _mm512_fmadd_ps(v0, xv, a0);
                a1 = _mm512_fmadd_ps(v1, xv, a1);
            };
            (step(acc0[R], acc1[R], x[R * in + i]), ...);
        } else {
            ((acc0[R] = _mm512_fmadd_ps(
                  v0, _mm512_set1_ps(x[R * in + i]), acc0[R])),
             ...);
        }
    }
    if constexpr (Pair) {
        ((_mm512_storeu_ps(y + R * out, reluRound(acc0[R])),
          _mm512_mask_storeu_ps(y + R * out + kLinearPanel, last,
                                reluRound(acc1[R]))),
         ...);
    } else {
        (_mm512_mask_storeu_ps(y + R * out, last, reluRound(acc0[R])),
         ...);
    }
}

/** The tile for the last rows % kLinearRowTileZmm rows (@p rows < T). */
template <bool Pair, std::size_t T>
[[gnu::always_inline]] inline void
zmmTailTile(std::size_t rows, const float *w0, __m512 b0, __m512 b1,
            __mmask16 last, std::size_t in, const float *x, float *y,
            std::size_t out)
{
    if constexpr (T > 1) {
        if (rows == T - 1)
            zmmTile<Pair>(std::make_index_sequence<T - 1>(), w0, b0, b1,
                          last, in, x, y, out);
        else
            zmmTailTile<Pair, T - 1>(rows, w0, b0, b1, last, in, x, y,
                                     out);
    }
}

/**
 * Every row against the panel at @p w0 (and the next one when Pair),
 * whose biases start at @p bias: whole tiles of kLinearRowTileZmm
 * rows, then one narrower tile. Only the layer's last panel can be
 * partial, and it is the tile's last panel, so its lanes @p last mask
 * the one bias load and store that could leave the caller's arrays.
 */
template <bool Pair>
void
zmmPanels(const float *w0, const float *bias, __mmask16 last,
          std::size_t in, const float *x, std::size_t rows, float *y,
          std::size_t out)
{
    constexpr std::size_t T = kLinearRowTileZmm;
    const __m512 b0 = Pair ? _mm512_loadu_ps(bias)
                           : _mm512_maskz_loadu_ps(last, bias);
    const __m512 b1 = Pair ? _mm512_maskz_loadu_ps(last, bias + kLinearPanel)
                           : _mm512_setzero_ps();
    std::size_t r = 0;
    for (; r + T <= rows; r += T)
        zmmTile<Pair>(std::make_index_sequence<T>(), w0, b0, b1, last,
                      in, x + r * in, y + r * out, out);
    zmmTailTile<Pair, T>(rows - r, w0, b0, b1, last, in, x + r * in,
                         y + r * out, out);
}

/** linearReluRows on zmm registers: panel pairs, then an odd last
 *  panel alone. */
void
linearReluRowsZmm(const float *w, const float *bias, std::size_t in,
                  std::size_t out, const float *x, std::size_t rows,
                  float *y)
{
    const std::size_t panels = (out + kLinearPanel - 1) / kLinearPanel;
    const auto mask_of = [&](std::size_t p) {
        // The lanes of panel p: all 16 but in a partial last panel.
        return p + 1 == panels
                   ? static_cast<__mmask16>(
                         0xffffu >> (panels * kLinearPanel - out))
                   : static_cast<__mmask16>(0xffffu);
    };
    std::size_t p = 0;
    for (; p + 2 <= panels; p += 2)
        zmmPanels<true>(w + p * in * kLinearPanel,
                        bias + p * kLinearPanel, mask_of(p + 1), in, x,
                        rows, y + p * kLinearPanel, out);
    if (p < panels)
        zmmPanels<false>(w + p * in * kLinearPanel,
                         bias + p * kLinearPanel, mask_of(p), in, x,
                         rows, y + p * kLinearPanel, out);
}

} // namespace

namespace detail {

bool
installZmmKernels(Kernels &table)
{
    static const bool supported = __builtin_cpu_supports("avx512f");
    if (!supported)
        return false;
    table.fps_leaf = &fpsLeafZmm;
    table.ball_scan = &ballScanZmm;
    table.linear_relu_rows = &linearReluRowsZmm;
    return true;
}

} // namespace detail

} // namespace fc::core::simd

#else // !(__AVX512F__ && __FMA__ && __F16C__)

namespace fc::core::simd::detail {

bool
installZmmKernels(Kernels &)
{
    return false;
}

} // namespace fc::core::simd::detail

#endif
