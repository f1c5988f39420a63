/**
 * @file
 * SIMD kernel bench: scalar vs dispatched kernels, per kernel.
 *
 * Each kernel row times the same workload twice — once with the
 * dispatch level forced to Scalar, once at the best level the machine
 * supports — and prints both times plus the speedup.
 *
 * CI contract (Release perf-smoke): the CSV shape (six kernel rows)
 * is gated by scripts/check_bench_csv.sh, and when the AVX2 kernels
 * are active this binary exits non-zero unless the fps-leaf and
 * LinearRelu rows reach a 2x speedup over scalar — a floor on the two
 * paper-critical kernels. The ball-scan row has no floor. The
 * fps-leaf row runs block FPS the way a lidar frame's leaves do:
 * fpsLeaf, the one FPS kernel, over 256-point leaves, quota 64 each
 * (rate 0.25). The LinearRelu row is LinearRelu::forward over 500 rows
 * of a 131->136 layer. The level cells of those three rows name the
 * Avx2 table's kernel that ran (detail::kernelTables()): "avx2 zmm"
 * on CPUs with AVX-512F (16 lanes; 8-row x 32-output MLP tiles) or
 * "avx2 ymm" (8 lanes; 6-row x 16-output tiles). The floor
 * covers both MLP kernels' edges: 136 outputs are 9 panels, so four
 * zmm panel pairs and one single panel, partial (136 % 16 = 8 lanes)
 * at both kernels; and forward's grain for this layer is 48 rows, so
 * the last chunk of 20 rows ends in a narrower row tile at both
 * (2 x 8 + 4, 3 x 6 + 2). On scalar-only machines the rows print with
 * speedup 1.0 and nothing is asserted.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/simd.h"
#include "nn/mlp.h"

namespace {

namespace simd = fc::core::simd;

/** Best-of-reps wall time of @p fn, in milliseconds. */
template <typename Fn>
double
bestMs(Fn &&fn, int reps)
{
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** One kernel row: run @p fn at Scalar and at the dispatched level. */
struct KernelTiming
{
    double scalar_ms = 0.0;
    double simd_ms = 0.0;

    double
    speedup() const
    {
        return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
    }
};

template <typename Fn>
KernelTiming
timeBothLevels(Fn &&fn, int reps)
{
    KernelTiming t;
    simd::setActiveLevel(simd::Level::Scalar);
    t.scalar_ms = bestMs(fn, reps);
    if (simd::avx2Available()) {
        simd::setActiveLevel(simd::Level::Avx2);
        t.simd_ms = bestMs(fn, reps);
        simd::setActiveLevel(simd::Level::Scalar);
    } else {
        t.simd_ms = t.scalar_ms;
    }
    return t;
}

constexpr std::size_t kPoints = 1 << 16;
constexpr std::size_t kLinearIn = 131;
constexpr std::size_t kLinearOut = 136;
constexpr std::size_t kLinearRows = 500;
constexpr int kReps = 5;

void
simdTable()
{
    fc::Pcg32 rng(1);
    const std::size_t n = kPoints;

    // Shared SoA candidate set.
    std::vector<float> xs(n), ys(n), zs(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(-1.0f, 1.0f);
        ys[i] = rng.uniform(-1.0f, 1.0f);
        zs[i] = rng.uniform(-1.0f, 1.0f);
    }
    const simd::SoaView pts{xs.data(), ys.data(), zs.data()};
    const fc::Vec3 query(0.1f, -0.2f, 0.3f);

    fc::Table table(
        {"kernel", "scalar ms", "simd ms", "speedup", "level"});
    const char *level_name =
        simd::levelName(simd::avx2Available() ? simd::Level::Avx2
                                              : simd::Level::Scalar);
    // The kernel the Avx2 table runs where ymm and zmm kernels differ.
    const std::string widest_kernel =
        simd::avx2Available()
            ? std::string(level_name) + " " +
                  simd::detail::kernelTables().back().name
            : std::string(level_name);
    const auto add_row = [&](const char *kernel, const KernelTiming &t,
                             const char *level = nullptr) {
        table.addRow({kernel, fc::Table::num(t.scalar_ms),
                      fc::Table::num(t.simd_ms),
                      fc::Table::num(t.speedup()),
                      level != nullptr ? level : level_name});
    };

    // Block FPS, shaped like a lidar frame's leaves: each 256-point
    // window is one leaf sampled at rate 0.25 in one fpsLeaf call.
    constexpr std::uint32_t kLeaf = 256;
    constexpr std::size_t kLeafQuota = 64;
    std::vector<float> leaf_dist(kLeaf);
    std::vector<std::uint32_t> leaf_positions(kLeafQuota);
    const KernelTiming fps_leaf = timeBothLevels(
        [&] {
            for (std::uint32_t w = 0; w + kLeaf <= n; w += kLeaf) {
                simd::fpsLeaf(pts, w, w + kLeaf, kLeafQuota,
                              leaf_dist.data(), leaf_positions.data());
                benchmark::DoNotOptimize(leaf_positions.data());
            }
        },
        kReps);
    add_row("fps-leaf", fps_leaf, widest_kernel.c_str());

    // Ball-query scan, shaped like one block ball query: each 512-point
    // window (a leaf's search space) answers one center with radius
    // 0.5 and k = 32, which uniform points fill near the window's end.
    constexpr std::uint32_t kWindow = 512;
    std::vector<std::uint32_t> hits(32);
    const KernelTiming ball = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep)
                for (std::uint32_t w = 0; w + kWindow <= n;
                     w += kWindow) {
                    const fc::Vec3 center(xs[w + sweep], ys[w + sweep],
                                          zs[w + sweep]);
                    const simd::BallScan s = simd::ballScan(
                        pts, center, 0.25f, w, w + kWindow, hits.size(),
                        hits.data());
                    benchmark::DoNotOptimize(s.found);
                }
        },
        kReps);
    add_row("ball-scan", ball, widest_kernel.c_str());

    // Neighbor distance screen.
    std::vector<float> dist_out(n);
    const KernelTiming screen = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep) {
                simd::distance2Range(pts, nullptr, 0, query, 0,
                                     static_cast<std::uint32_t>(n),
                                     dist_out.data());
                benchmark::DoNotOptimize(dist_out.data());
            }
        },
        kReps);
    add_row("distance2-range", screen);

    // LinearRelu: the row kernel under its real caller (weights
    // quantized, activations fp16-rounded).
    const fc::nn::LinearRelu layer(kLinearIn, kLinearOut, 7);
    fc::nn::Tensor x(kLinearRows, kLinearIn);
    for (std::size_t r = 0; r < kLinearRows; ++r)
        for (std::size_t c = 0; c < kLinearIn; ++c)
            x.at(r, c) = rng.uniform(-1.0f, 1.0f);
    x.quantizeFp16();
    fc::nn::Tensor y;
    const KernelTiming linear = timeBothLevels(
        [&] {
            layer.forward(x, nullptr, y);
            benchmark::DoNotOptimize(y.data().data());
        },
        kReps);
    add_row("linear-relu-fp32", linear, widest_kernel.c_str());

    // Interpolation blend (axpy).
    std::vector<float> blend_src(n, 0.5f), blend_dst(n, 0.0f);
    const KernelTiming blend = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep) {
                simd::axpy(0.25f, blend_src.data(), blend_dst.data(),
                           n);
                benchmark::DoNotOptimize(blend_dst.data());
            }
        },
        kReps);
    add_row("axpy", blend);

    // fp16 rounding (Tensor::quantizeFp16 / activation stores).
    std::vector<float> round_buf(n, 0.12345f);
    const KernelTiming rounding = timeBothLevels(
        [&] {
            for (int sweep = 0; sweep < 16; ++sweep) {
                simd::fp16RoundBuffer(round_buf.data(), n);
                benchmark::DoNotOptimize(round_buf.data());
            }
        },
        kReps);
    add_row("fp16-round", rounding);

    fcb::emit(table, "bench_simd_kernels",
              "SIMD kernel layer: scalar vs dispatched (" +
                  std::to_string(kPoints) + " candidates, " +
                  std::to_string(kLinearRows) + " MLP rows " +
                  std::to_string(kLinearIn) + "->" +
                  std::to_string(kLinearOut) + ")");

    // The CI floor: the two paper-critical kernels must beat scalar
    // by 2x whenever the AVX2 path is in play.
    if (simd::avx2Available()) {
        bool ok = true;
        if (fps_leaf.speedup() < 2.0) {
            std::printf("FAIL: fps-leaf speedup %.2fx < 2x\n",
                        fps_leaf.speedup());
            ok = false;
        }
        if (linear.speedup() < 2.0) {
            std::printf("FAIL: linear-relu-fp32 speedup %.2fx < 2x\n",
                        linear.speedup());
            ok = false;
        }
        if (!ok)
            std::exit(1);
    }
}

/** Micro kernel: one 256-point leaf's FPS, quota 64, at the dispatched
 *  level. */
void
BM_FpsLeaf(benchmark::State &state)
{
    constexpr std::uint32_t n = 256;
    fc::Pcg32 rng(3);
    std::vector<float> xs(n), ys(n), zs(n), min_dist(n);
    std::vector<std::uint32_t> positions(64);
    for (std::uint32_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(-1.0f, 1.0f);
        ys[i] = rng.uniform(-1.0f, 1.0f);
        zs[i] = rng.uniform(-1.0f, 1.0f);
    }
    const simd::SoaView pts{xs.data(), ys.data(), zs.data()};
    for (auto _ : state) {
        simd::fpsLeaf(pts, 0, n, positions.size(), min_dist.data(),
                      positions.data());
        benchmark::DoNotOptimize(positions.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(positions.size()));
}
BENCHMARK(BM_FpsLeaf);

} // namespace

FC_BENCH_MAIN(simdTable)
