/**
 * @file
 * AVX-512F linearReluRows kernel of core/simd.h: the Avx2 table's MLP
 * entry on CPUs with AVX-512F.
 *
 * This is the only translation unit compiled with -mavx512f
 * (per-file COMPILE_OPTIONS in CMakeLists.txt, beside -mfma -mf16c);
 * zmmLinearReluRows() adds a cpuid check at runtime, and simd_avx2.cc
 * installs the kernel only when it returns one. On builds without
 * those flags it returns null and the Avx2 table keeps its ymm kernel.
 *
 * One zmm register holds one packed 16-output panel, so the kernel
 * reads packLinearWeights' layout as the ymm kernel does. Its register
 * tile is kLinearRowTileZmm rows x 2 panels (16 accumulators); an odd
 * last panel runs a one-panel tile, and the layer's last panel, when
 * partial, loads its biases and stores its outputs under a lane mask.
 *
 * Bit-identity (the contract tests/test_simd.cc asserts): every lane
 * runs the scalar loop's sequence. The bias seeds the accumulator,
 * then one FMA per ascending input, which rounds like the scalar
 * mul+add because a product of two fp16 values is exact in fp32. The
 * ReLU is max(zero, acc) = (0 > acc) ? 0 : acc (vmaxps), which keeps
 * NaN and -0 like the scalar acc < 0 ? 0 : acc. The fp16 rounding is
 * the _mm512_cvtps_ph / _mm512_cvtph_ps round trip, round to nearest
 * even like the F16C one in simd_avx2.cc.
 */

#include "core/simd.h"

#if defined(__AVX512F__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>

#include <utility>

namespace fc::core::simd {

namespace {

constexpr int kRoundNearest =
    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
constexpr __mmask16 kAllLanes = 0xffff;

/**
 * ReLU, then binary16 rounding, of one panel's accumulators:
 * _mm512_max_ps(zero, acc), then the _mm512_cvtps_ph /
 * _mm512_cvtph_ps round trip. They are spelled as the zero-masking
 * forms with every lane set, the same instructions, because GCC 12's
 * unmasked forms pass an _mm512_undefined_ps() operand that
 * -Wmaybe-uninitialized reports wherever they inline.
 */
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

LinearReluRowsFn
zmmLinearReluRows()
{
    static const bool supported = __builtin_cpu_supports("avx512f");
    return supported ? &linearReluRowsZmm : nullptr;
}

} // namespace detail

} // namespace fc::core::simd

#else // !(__AVX512F__ && __FMA__ && __F16C__)

namespace fc::core::simd::detail {

LinearReluRowsFn
zmmLinearReluRows()
{
    return nullptr;
}

} // namespace fc::core::simd::detail

#endif
