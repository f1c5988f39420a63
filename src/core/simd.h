/**
 * @file
 * Runtime-dispatched vector kernels for the hot inner loops.
 *
 * The paper's speedup comes from wide PE arrays crunching distance and
 * feature math; on a CPU the equivalent is explicit vectorization of
 * the same three inner loops (the Fig. 4 bottleneck trio): the FPS
 * min-distance update (fpsUpdate), the ball-query scan (ballScan) and
 * the KNN distance screen (distance2Range), and the MLP inner
 * products — a whole LinearRelu layer over a block of rows
 * (linearReluRows, over weights laid out by packLinearWeights), plus
 * the axpy blend and fp16 rounding around them. The partitioners'
 * two traversals, the extrema scan (extrema) and the in-place split
 * (splitBelow), are the Fractal engine's inner loops. This header
 * exposes exactly those primitives, with two implementations behind
 * one function-pointer table:
 *
 *   - Scalar: a reference path whose arithmetic is literally the loop
 *     it replaced — bit-identical to the pre-SIMD code, element order
 *     and all. This is the determinism anchor every test compares
 *     against.
 *   - Avx2: AVX2+FMA+F16C kernels compiled in a separate translation
 *     unit (simd_avx2.cc) with per-file -mavx2 flags, selected at
 *     runtime via cpuid so the binary still runs on older x86-64.
 *     Its MLP entry (linearReluRows) is one of two kernels, chosen
 *     once by cpuid when the table is built: on a CPU with AVX-512F
 *     the zmm kernel of simd_avx512.cc (per-file -mavx512f flags;
 *     8 rows x 32 outputs per register tile), else the ymm kernel of
 *     simd_avx2.cc (6 rows x 16 outputs). Both are bit-identical to
 *     Scalar, so the choice adds no level and no level name.
 *
 * Dispatch is decided once, on first use: cpuid gates Avx2, and the
 * FC_FORCE_SCALAR environment variable (any non-empty value except
 * "0") forces the scalar path. Tests and benches may also override
 * programmatically with setActiveLevel().
 *
 * Accuracy contract (asserted by tests/test_simd.cc):
 *
 *   - fpsUpdate, ballScan, distance2Range, axpy: the Avx2 path is
 *     bit-identical to Scalar. The distance kernels deliberately avoid
 *     FMA and keep the scalar evaluation order
 *     ((dx*dx + dy*dy) + dz*dz), min/max and argmax semantics match
 *     the scalar comparisons including NaN behaviour, and axpy is
 *     elementwise mul+add. ballScan's radius test is the exact
 *     comparison d <= radius2, so a NaN distance never hits, and its
 *     hits, found and examined counts are equal at both levels.
 *   - extrema: bit-identical to the sequential fold
 *     lo = std::min(lo, k), hi = std::max(hi, k) at both levels. Avx2
 *     keeps per-lane folds with _mm256_min_ps(k, lo) =
 *     (k < lo) ? k : lo, which is std::min(lo, k) (likewise max), so
 *     a NaN key is skipped in its lane as in the scalar fold. The
 *     lanes then meet in another order, which cannot change the value.
 *     It cannot change the bits either, except between +0 and -0:
 *     every other pair of equal floats has equal bits. The sequential
 *     fold keeps the first of equal keys, so a zero extremum is the
 *     range's first zero, and Avx2 re-reads that key.
 *   - splitBelow: the exact arrangement of libstdc++'s std::partition
 *     (the bidirectional Hoare loop) at both levels. That loop swaps
 *     the j-th key >= value from the left with the j-th key < value
 *     from the right while the first lies left of the second. With m
 *     keys < value, the swapped pairs are therefore exactly the keys
 *     >= value in [begin, begin + m), ascending, against the keys
 *     < value in [begin + m, end), descending; the two counts are
 *     equal, and the loop returns begin + m. Scalar runs that loop.
 *     Avx2 counts m with a compare and movemask, then collects both
 *     position lists 8 keys at a time through the lane table of
 *     ballScan and swaps them in that order. Both compare with the
 *     scalar k < value (_CMP_LT_OQ), so a NaN key sorts to the right.
 *   - fp16RoundBuffer: bit-identical to the software fp16Round in
 *     common/fp16.h for every non-NaN input; NaN payloads may differ
 *     (F16C propagates payload bits, the software path canonicalizes
 *     to 0x200) while staying NaN.
 *   - linearReluRows: bit-identical across levels when the weights
 *     and inputs are fp16-valued (each survives fp16Round unchanged).
 *     LinearRelu guarantees that: its weights are quantized at
 *     construction, and every layer input is a quantized network input
 *     or an fp16-rounded activation. Every output lane runs the scalar
 *     loop's sequence at both levels: acc = bias, then
 *     acc += w[o][i] * x[i] for ascending i, the ReLU
 *     acc < 0 ? 0 : acc, and fp16 rounding. Both Avx2 kernels, ymm
 *     and zmm, vectorize across the 16 outputs of a panel (one ymm
 *     pair or one zmm register) and add with FMA. That keeps the
 *     identity: a product of two fp16 values has at most 22
 *     significant bits and an exponent within [-48, 32], so it is
 *     exact in fp32, and fma(w, x, acc) rounds exactly like
 *     acc + w*x. The ReLU is max(zero, acc) = (0 > acc) ? 0 : acc,
 *     which keeps NaN and -0 as the scalar comparison does, and a NaN
 *     output stays NaN (its payload may differ, as for
 *     fp16RoundBuffer). Outside the precondition only Scalar rounds
 *     the products, so before the ReLU and the fp16 rounding the
 *     Scalar sum and either Avx2 kernel's finite fp32 sum differ by
 *     at most 2 * gamma(in + 1) * (|bias| + sum_i |w[o][i] * x[i]|),
 *     with gamma(n) = n * 2^-24 / (1 - n * 2^-24) (recursive
 *     summation: at most in + 1 roundings reach each term at Scalar,
 *     in at Avx2); the ymm and zmm kernels agree bit for bit whatever
 *     the operands, as both run the same FMA sequence per lane. How a
 *     caller splits its rows into blocks never changes a result.
 *
 * Threading: kernels are pure functions over caller-owned memory and
 * may run concurrently on disjoint ranges — they are called from
 * inside parallelFor/parallelReduce chunks. setActiveLevel() is for
 * test/bench setup only, not for racing against in-flight kernels.
 */

#ifndef FC_CORE_SIMD_H
#define FC_CORE_SIMD_H

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace fc::core {
class Arena;
}

namespace fc::core::simd {

/** Implementation tiers, in dispatch-preference order. */
enum class Level : int
{
    Scalar = 0,
    Avx2 = 1,
};

/** True when the CPU (and the build) support the Avx2 kernels. */
bool avx2Available();

/**
 * The level every kernel currently dispatches to. Resolved once on
 * first use: Avx2 when available unless FC_FORCE_SCALAR is set.
 */
Level activeLevel();

/**
 * Override the dispatch level (tests/benches). Requesting Avx2 on a
 * machine without it keeps Scalar and returns false.
 */
bool setActiveLevel(Level level);

/** Human-readable level name ("scalar" / "avx2"). */
const char *levelName(Level level);

/**
 * Pure resolution rule behind activeLevel(), exposed for tests:
 * @p force_scalar_env is the raw FC_FORCE_SCALAR value (null = unset;
 * set and not "0" forces Scalar).
 */
Level resolveLevel(bool avx2_available, const char *force_scalar_env);

/**
 * Structure-of-arrays view of point coordinates. Non-owning; pointers
 * must stay valid for the kernel call. Two sources feed the kernels:
 * a part::BlockTree's points() (the cloud in DFT order, for the block
 * ops) and soaInto() (a whole cloud in its own order, for the global
 * ops).
 */
struct SoaView
{
    const float *xs = nullptr;
    const float *ys = nullptr;
    const float *zs = nullptr;

    /** The coordinate array of axis @p dim (0, 1 or 2). */
    const float *
    axis(int dim) const
    {
        return dim == 0 ? xs : dim == 1 ? ys : zs;
    }
};

/**
 * Copy @p coords into three spans of @p arena and view them:
 * xs[i] == coords[i].x, and likewise for y and z. The global point ops
 * call it once per call, before any pooled dispatch, so their row
 * tasks share the view read-only. The copy is O(n) against their
 * O(n * m) scans, and a warm arena replays it without allocating.
 */
SoaView soaInto(std::span<const Vec3> coords, Arena &arena);

/**
 * Result of one fpsUpdate sweep over a chunk of local candidates.
 * `best`/`pos` carry the running-argmax state of the serial FPS loop
 * (strictly-greater updates, so `pos` is the earliest maximal local
 * index); `sampled` counts candidates skipped because their sampled
 * flag was set — the caller derives visited/computed/skipped stats
 * from it, keeping the kernel free of policy.
 */
struct FpsPartial
{
    float best = -1.0f;
    std::uint32_t pos = 0;
    std::uint32_t sampled = 0;
};

/**
 * One fused FPS distance-update sweep: for every unsampled local
 * candidate i in [begin, end), compute the squared distance from
 * @p query to point base + i of @p pts, lower min_dist[i] with it,
 * and track the running argmax of the updated min_dist — the body of
 * the paper's FPS iteration. Candidates are contiguous: callers pass
 * the first position of their view (a whole cloud, or one block of a
 * BlockTree's DFT-ordered points()) as @p base, so local positions
 * index min_dist/sampled directly. Scalar-loop semantics exactly
 * (see file header); min_dist is updated in place, sampled is
 * read-only.
 */
FpsPartial fpsUpdate(const SoaView &pts, std::uint32_t base,
                     const Vec3 &query, float *min_dist,
                     const std::uint8_t *sampled, std::uint32_t begin,
                     std::uint32_t end);

/** Outcome of one ballScan. */
struct BallScan
{
    /** Hits written, at most k. */
    std::uint32_t found = 0;
    /** Positions tested: through the k-th hit, else all of them. */
    std::uint32_t examined = 0;
};

/**
 * The ball-query scan over the contiguous positions [begin, end) of
 * @p pts: writes every position whose squared distance from @p query
 * is <= @p radius2 to @p hits in ascending order, and stops at the
 * k-th hit. @p hits must hold k entries; those from `found` on are
 * scratch on return (the Avx2 entry stores 8 at a time). A caller
 * maps the positions to point ids itself (a BlockTree's order(), or
 * none for a whole cloud) and counts `examined` as its visited
 * candidates.
 */
BallScan ballScan(const SoaView &pts, const Vec3 &query, float radius2,
                  std::uint32_t begin, std::uint32_t end, std::size_t k,
                  std::uint32_t *hits);

/**
 * Squared distances from @p query to the local candidates
 * [begin, end), written to out[i - begin]. Local position i names
 * point order[i] of @p pts, or identity_base + i when @p order is
 * null. The distance screen of KNN over explicit candidate lists:
 * callers scan the tile with their own top-k logic.
 */
void distance2Range(const SoaView &pts, const PointIdx *order,
                    std::uint32_t identity_base, const Vec3 &query,
                    std::uint32_t begin, std::uint32_t end, float *out);

/**
 * Min and max of keys[begin, end), bit for bit the sequential fold
 * lo = std::min(lo, k), hi = std::max(hi, k) from (+inf, -inf): NaN
 * keys are skipped, and of equal keys the first one wins, which
 * decides the sign of a zero extremum. An empty range returns
 * (+inf, -inf).
 */
std::pair<float, float> extrema(const float *keys, std::uint32_t begin,
                                std::uint32_t end);

/**
 * The working arrays of a partition build, position for position:
 * point ids and their coordinates (a part::BlockTree's order() and
 * points() while a partitioner rearranges them).
 */
struct SplitArrays
{
    PointIdx *ids = nullptr;
    float *xs = nullptr;
    float *ys = nullptr;
    float *zs = nullptr;

    /** The coordinate array of axis @p dim (0, 1 or 2). */
    float *
    axis(int dim) const
    {
        return dim == 0 ? xs : dim == 1 ? ys : zs;
    }
};

/**
 * Partition positions [begin, end) of @p arrays in place on axis
 * @p dim: positions whose coordinate is < @p value move before all
 * others, ids and all three coordinates together. Returns the first
 * position of the second group. The arrangement is exactly libstdc++'s
 * std::partition over the same keys (see the file header), so it
 * replaces one without changing any output; a NaN coordinate is never
 * < value. Uses no memory beyond a few dozen stack bytes.
 */
std::uint32_t splitBelow(const SplitArrays &arrays, int dim,
                         std::uint32_t begin, std::uint32_t end,
                         float value);

/** Outputs per packed weight panel (two ymm vectors or one zmm). */
inline constexpr std::size_t kLinearPanel = 16;

/**
 * Pack the [out x in] row-major weights @p w into the layout
 * linearReluRows reads: ceil(out / kLinearPanel) panels, each
 * [in][kLinearPanel], so packed[(p * in + i) * kLinearPanel + l] =
 * w[(p * kLinearPanel + l) * in + i]. Lanes past @p out are zero.
 */
std::vector<float> packLinearWeights(const float *w, std::size_t in,
                                     std::size_t out);

/**
 * One LinearRelu layer over a block of rows, bias + ReLU + binary16
 * output rounding fused: for r in [0, rows) and o in [0, out),
 *
 *     acc = bias[o];  acc += w[o][i] * x[r*in + i]  for i = 0..in-1
 *     y[r*out + o] = fp16Round(acc < 0 ? 0 : acc)
 *
 * with @p w the weights as packed by packLinearWeights(_, in, out),
 * @p x the [rows x in] inputs and @p y the [rows x out] outputs (must
 * not alias @p x). Bit-identical across levels for fp16-valued
 * weights and inputs (see file header).
 */
void linearReluRows(const float *w, const float *bias, std::size_t in,
                    std::size_t out, const float *x, std::size_t rows,
                    float *y);

/**
 * Rows per register tile of the ymm linearReluRows kernel, which
 * computes one panel of kLinearPanel outputs for this many rows per
 * pass over the panel: 12 ymm accumulators, the most that leave
 * registers for the two weight vectors and a broadcast. Over the 23
 * LinearRelu layers of PointNet++ semseg (delayed order, 8192
 * points, one thread), 6 x 16 and 5 x 16 tied at a best of 32.9 ms
 * and 4 x 16 took 35.0 ms.
 */
inline constexpr std::size_t kLinearRowTile = 6;

/**
 * Rows per register tile of the zmm linearReluRows kernel, which
 * computes two panels (32 outputs) for this many rows per pass: 16
 * zmm accumulators, two weight vectors and a broadcast out of 32
 * registers. Over the same 23 layer shapes, rows chunked as
 * LinearRelu::forward does, one thread, best of 7 in each of two
 * runs: 8 x 2 panels 26.7 / 30.9 ms, 6 x 2 27.9 / 32.3, 10 x 2
 * 28.9 / 31.9, 4 x 2 29.6 / 33.4, 12 x 2 30.6 / 33.1, and the ymm
 * tile 42.0 / 46.2 ms (Xeon with AVX-512, gcc 12). An odd last panel
 * runs a one-panel tile of the same height.
 */
inline constexpr std::size_t kLinearRowTileZmm = 8;

/**
 * A whole number of row tiles at both kernels (24). A block whose row
 * count is not a multiple of a kernel's tile ends in a narrower tile
 * that reuses each weight load less, so callers that chunk rows round
 * their chunk length up to a multiple of this.
 */
inline constexpr std::size_t kLinearRowGrainUnit =
    std::lcm(kLinearRowTile, kLinearRowTileZmm);

/** y[i] += a * x[i], elementwise (bit-identical across levels). */
void axpy(float a, const float *x, float *y, std::size_t n);

/** Round @p n floats through binary16 in place (Tensor::quantizeFp16
 *  and the LinearRelu activation store). */
void fp16RoundBuffer(float *values, std::size_t n);

namespace detail {

/** The signature of linearReluRows, one entry of a kernel table. */
using LinearReluRowsFn = void (*)(const float *, const float *,
                                  std::size_t, std::size_t,
                                  const float *, std::size_t, float *);

/** Per-level kernel table; one instance per Level. */
struct Kernels
{
    FpsPartial (*fps_update)(const SoaView &, std::uint32_t,
                             const Vec3 &, float *, const std::uint8_t *,
                             std::uint32_t, std::uint32_t);
    BallScan (*ball_scan)(const SoaView &, const Vec3 &, float,
                          std::uint32_t, std::uint32_t, std::size_t,
                          std::uint32_t *);
    void (*distance2_range)(const SoaView &, const PointIdx *,
                            std::uint32_t, const Vec3 &, std::uint32_t,
                            std::uint32_t, float *);
    std::pair<float, float> (*extrema)(const float *, std::uint32_t,
                                       std::uint32_t);
    std::uint32_t (*split_below)(const SplitArrays &, int, std::uint32_t,
                                 std::uint32_t, float);
    LinearReluRowsFn linear_relu_rows;
    void (*axpy)(float, const float *, float *, std::size_t);
    void (*fp16_round)(float *, std::size_t);
};

/** The active table (atomic pointer swap under setActiveLevel). */
const Kernels &active();

/** Avx2 table, or null when the build/CPU cannot run it. Defined in
 *  simd_avx2.cc (compiled with -mavx2 -mfma -mf16c). Its
 *  linear_relu_rows entry is zmmLinearReluRows() when that is not
 *  null, else ymmLinearReluRows(). */
const Kernels *avx2Kernels();

/** The Avx2 table's ymm linearReluRows kernel (simd_avx2.cc), or
 *  null when avx2Kernels() is. Tests call it directly, so both MLP
 *  kernels stay covered on a CPU that installs the zmm one. */
LinearReluRowsFn ymmLinearReluRows();

/** The zmm linearReluRows kernel (simd_avx512.cc, compiled with
 *  -mavx512f -mfma -mf16c), or null when the build or the CPU lacks
 *  AVX-512F. */
LinearReluRowsFn zmmLinearReluRows();

/** Swap positions @p a and @p b of every array (both splitBelow
 *  levels). */
inline void
swapPositions(const SplitArrays &arrays, std::uint32_t a, std::uint32_t b)
{
    std::swap(arrays.ids[a], arrays.ids[b]);
    std::swap(arrays.xs[a], arrays.xs[b]);
    std::swap(arrays.ys[a], arrays.ys[b]);
    std::swap(arrays.zs[a], arrays.zs[b]);
}

} // namespace detail

} // namespace fc::core::simd

#endif // FC_CORE_SIMD_H
