/**
 * @file
 * Runtime-dispatched vector kernels for the hot inner loops.
 *
 * The paper's speedup comes from wide PE arrays crunching distance and
 * feature math; on a CPU the equivalent is explicit vectorization of
 * the same three inner loops (the Fig. 4 bottleneck trio): the FPS
 * min-distance update, the ball-query/KNN distance screens, and the
 * MLP inner products — one output (dotAcc) or a whole LinearRelu
 * layer over a block of rows (linearReluRows), plus the axpy blend
 * and fp16 rounding around them. This header exposes exactly those
 * primitives, with two implementations behind one function-pointer
 * table:
 *
 *   - Scalar: a reference path whose arithmetic is literally the loop
 *     it replaced — bit-identical to the pre-SIMD code, element order
 *     and all. This is the determinism anchor every test compares
 *     against.
 *   - Avx2: AVX2+FMA+F16C kernels compiled in a separate translation
 *     unit (simd_avx2.cc) with per-file -mavx2 flags, selected at
 *     runtime via cpuid so the binary still runs on older x86-64.
 *
 * Dispatch is decided once, on first use: cpuid gates Avx2, and the
 * FC_FORCE_SCALAR environment variable (any non-empty value except
 * "0") forces the scalar path. Tests and benches may also override
 * programmatically with setActiveLevel().
 *
 * Accuracy contract (asserted by tests/test_simd.cc):
 *
 *   - fpsUpdate, distance2Range, axpy: the Avx2 path is bit-identical
 *     to Scalar. The distance kernels deliberately avoid FMA and keep
 *     the scalar evaluation order ((dx*dx + dy*dy) + dz*dz), min/max
 *     and argmax semantics match the scalar comparisons including NaN
 *     behaviour, and axpy is elementwise mul+add.
 *   - fp16RoundBuffer: bit-identical to the software fp16Round in
 *     common/fp16.h for every non-NaN input; NaN payloads may differ
 *     (F16C propagates payload bits, the software path canonicalizes
 *     to 0x200) while staying NaN.
 *   - dotAcc: fp32 accumulation in a fixed two-register FMA scheme.
 *     Association differs from the scalar running sum, so results are
 *     ULP-bounded, not bit-equal: the error is at most ~(n/8 + 8)
 *     float ULP of sum_i |a_i * b_i|, and after binary16 output
 *     rounding (how every MLP activation is stored) scalar and Avx2
 *     agree to <= 1 fp16 ULP. Within one level the scheme is fixed,
 *     so MLP activations are bit-identical run to run.
 *   - linearReluRows: every output is bit-identical to dotAcc at the
 *     same level, followed by the ReLU and fp16RoundBuffer of its
 *     output row. Scalar is literally that loop; Avx2 computes one
 *     output for a register tile of rows at once, but each row keeps
 *     its own two accumulators and dotAcc's exact sequence, so only
 *     the weight loads are shared. Across levels it inherits dotAcc's
 *     1 fp16 ULP bound.
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

#include "common/types.h"

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
 * Structure-of-arrays view of point coordinates (data::PointCloud::
 * soa()). Non-owning; pointers must stay valid for the kernel call.
 */
struct SoaView
{
    const float *xs = nullptr;
    const float *ys = nullptr;
    const float *zs = nullptr;
};

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
 * Candidate addressing shared by fpsUpdate and distance2Range: local
 * position i in [begin, end) names point
 *
 *     order != nullptr ? order[i] : identity_base + i
 *
 * of @p pts. FPS callers pass their view's order pointer pre-offset
 * (order.data() + view_begin) so local positions index min_dist/
 * sampled directly; identity-view callers pass order = nullptr and
 * the view offset as @p identity_base.
 */

/**
 * One fused FPS distance-update sweep: for every unsampled local
 * candidate i in [begin, end), compute the squared distance from
 * @p query, lower min_dist[i] with it, and track the running argmax
 * of the updated min_dist — the body of the paper's FPS iteration.
 * Scalar-loop semantics exactly (see file header); min_dist is
 * updated in place, sampled is read-only.
 */
FpsPartial fpsUpdate(const SoaView &pts, const PointIdx *order,
                     std::uint32_t identity_base, const Vec3 &query,
                     float *min_dist, const std::uint8_t *sampled,
                     std::uint32_t begin, std::uint32_t end);

/**
 * Squared distances from @p query to the local candidates
 * [begin, end), written to out[i - begin]. The distance screen of
 * ball query and KNN: callers scan the tile with their own
 * radius/top-k logic.
 */
void distance2Range(const SoaView &pts, const PointIdx *order,
                    std::uint32_t identity_base, const Vec3 &query,
                    std::uint32_t begin, std::uint32_t end, float *out);

/**
 * init + sum_i a[i] * b[i] with fp32 accumulation — one MLP output
 * neuron with @p init as its bias. Scalar: the exact running sum of
 * the historical LinearRelu row loop. Avx2: FMA partial sums
 * (ULP-bounded, see file header).
 */
float dotAcc(float init, const float *a, const float *b, std::size_t n);

/**
 * One LinearRelu layer over a block of rows, bias + ReLU + binary16
 * output rounding fused: for r in [0, rows) and o in [0, out),
 *
 *     y[r*out + o] = fp16Round(relu(dotAcc(bias[o], w + o*in,
 *                                          x + r*in, in)))
 *
 * with @p w the [out x in] row-major weights, @p x the [rows x in]
 * inputs and @p y the [rows x out] outputs (must not alias @p x).
 * Bit-identical per output to that dotAcc loop at the same level
 * (see file header), so how a caller splits its rows into blocks
 * never changes a result.
 */
void linearReluRows(const float *w, const float *bias, std::size_t in,
                    std::size_t out, const float *x, std::size_t rows,
                    float *y);

/**
 * Rows per register tile of the Avx2 linearReluRows kernel, which
 * computes one output for this many rows per pass over its weight
 * row (6 rows x 1 output ran the PointNet++ semseg layer stack
 * fastest of the 2x2, 3x2, 2x3, 4x2, 3x1, 4x1, 5x1, 6x1 and 8x1
 * tiles). A block whose row count is not a multiple of it ends in a
 * narrower tile that reuses each weight load less, so callers that
 * chunk rows round their chunk length up to a multiple of it.
 */
inline constexpr std::size_t kLinearRowTile = 6;

/** y[i] += a * x[i], elementwise (bit-identical across levels). */
void axpy(float a, const float *x, float *y, std::size_t n);

/** Round @p n floats through binary16 in place (Tensor::quantizeFp16
 *  and the LinearRelu activation store). */
void fp16RoundBuffer(float *values, std::size_t n);

namespace detail {

/** Per-level kernel table; one instance per Level. */
struct Kernels
{
    FpsPartial (*fps_update)(const SoaView &, const PointIdx *,
                             std::uint32_t, const Vec3 &, float *,
                             const std::uint8_t *, std::uint32_t,
                             std::uint32_t);
    void (*distance2_range)(const SoaView &, const PointIdx *,
                            std::uint32_t, const Vec3 &, std::uint32_t,
                            std::uint32_t, float *);
    float (*dot_acc)(float, const float *, const float *, std::size_t);
    void (*linear_relu_rows)(const float *, const float *, std::size_t,
                             std::size_t, const float *, std::size_t,
                             float *);
    void (*axpy)(float, const float *, float *, std::size_t);
    void (*fp16_round)(float *, std::size_t);
};

/** The active table (atomic pointer swap under setActiveLevel). */
const Kernels &active();

/** Avx2 table, or null when the build/CPU cannot run it. Defined in
 *  simd_avx2.cc (the only TU compiled with -mavx2 -mfma -mf16c). */
const Kernels *avx2Kernels();

} // namespace detail

} // namespace fc::core::simd

#endif // FC_CORE_SIMD_H
