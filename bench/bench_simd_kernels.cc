/**
 * @file
 * SIMD kernel bench: scalar vs dispatched kernels, per kernel.
 *
 * Each kernel row times the same workload twice — once with the
 * dispatch level forced to Scalar, once at the best level the machine
 * supports — and prints both times plus the speedup.
 *
 * CI contract (Release perf-smoke): the CSV shape is gated by
 * scripts/check_bench_csv.sh, and when the AVX2 kernels are active
 * this binary exits non-zero unless the FPS distance-update and
 * LinearRelu rows reach a 2x speedup over scalar — the floor the
 * ISSUE's perf target sets for the two paper-critical kernels. On
 * scalar-only machines the rows print with speedup 1.0 and nothing is
 * asserted.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
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
constexpr std::size_t kDotDim = 128;
constexpr std::size_t kDotRows = 512;
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
    const auto add_row = [&](const char *kernel,
                             const KernelTiming &t) {
        table.addRow({kernel, fc::Table::num(t.scalar_ms),
                      fc::Table::num(t.simd_ms),
                      fc::Table::num(t.speedup()), level_name});
    };

    // FPS distance update: the fused min-distance + argmax sweep.
    std::vector<float> min_dist(n);
    std::vector<std::uint8_t> sampled(n, 0);
    for (std::size_t i = 0; i < n; i += 37)
        sampled[i] = 1;
    const KernelTiming fps = timeBothLevels(
        [&] {
            std::fill(min_dist.begin(), min_dist.end(),
                      std::numeric_limits<float>::max());
            for (int sweep = 0; sweep < 16; ++sweep) {
                const simd::FpsPartial p = simd::fpsUpdate(
                    pts, nullptr, 0, query, min_dist.data(),
                    sampled.data(), 0,
                    static_cast<std::uint32_t>(n));
                benchmark::DoNotOptimize(p.best);
            }
        },
        kReps);
    add_row("fps-update", fps);

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

    // LinearRelu: the per-row dot kernel under its real caller
    // (weights quantized, activations fp16-rounded).
    const fc::nn::LinearRelu layer(kDotDim, kDotDim, 7);
    fc::nn::Tensor x(kDotRows, kDotDim);
    for (std::size_t r = 0; r < kDotRows; ++r)
        for (std::size_t c = 0; c < kDotDim; ++c)
            x.at(r, c) = rng.uniform(-1.0f, 1.0f);
    x.quantizeFp16();
    fc::nn::Tensor y;
    const KernelTiming linear = timeBothLevels(
        [&] {
            layer.forward(x, nullptr, y);
            benchmark::DoNotOptimize(y.data().data());
        },
        kReps);
    add_row("linear-relu-fp32", linear);

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
                  std::to_string(kDotRows) + "x" +
                  std::to_string(kDotDim) + " MLP rows)");

    // The CI floor: the two paper-critical kernels must beat scalar
    // by 2x whenever the AVX2 path is in play.
    if (simd::avx2Available()) {
        bool ok = true;
        if (fps.speedup() < 2.0) {
            std::printf("FAIL: fps-update speedup %.2fx < 2x\n",
                        fps.speedup());
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

/** Micro kernel: one FPS update sweep at the dispatched level. */
void
BM_FpsUpdateSweep(benchmark::State &state)
{
    const std::size_t n = 1 << 14;
    fc::Pcg32 rng(3);
    std::vector<float> xs(n), ys(n), zs(n),
        min_dist(n, std::numeric_limits<float>::max());
    std::vector<std::uint8_t> sampled(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = rng.uniform(-1.0f, 1.0f);
        ys[i] = rng.uniform(-1.0f, 1.0f);
        zs[i] = rng.uniform(-1.0f, 1.0f);
    }
    const simd::SoaView pts{xs.data(), ys.data(), zs.data()};
    const fc::Vec3 query(0.0f, 0.0f, 0.0f);
    for (auto _ : state) {
        const simd::FpsPartial p =
            simd::fpsUpdate(pts, nullptr, 0, query, min_dist.data(),
                            sampled.data(), 0,
                            static_cast<std::uint32_t>(n));
        benchmark::DoNotOptimize(p.best);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FpsUpdateSweep);

/** Micro kernel: one fp32 dot row at the dispatched level. */
void
BM_DotAccRow(benchmark::State &state)
{
    const std::size_t n = 256;
    fc::Pcg32 rng(5);
    std::vector<float> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.uniform(-1.0f, 1.0f);
        b[i] = rng.uniform(-1.0f, 1.0f);
    }
    for (auto _ : state) {
        const float acc = simd::dotAcc(0.0f, a.data(), b.data(), n);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DotAccRow);

} // namespace

FC_BENCH_MAIN(simdTable)
