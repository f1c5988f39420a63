/**
 * @file
 * The core::simd accuracy contract, asserted.
 *
 *  - Dispatch resolution (FC_FORCE_SCALAR rule, setActiveLevel
 *    round-trips) as pure unit tests.
 *  - Scalar-vs-Avx2 equivalence for every kernel the contract calls
 *    bit-identical (fpsUpdate, distance2Range, axpy, fp16 rounding),
 *    on adversarial inputs: all-equal points, denormal coordinates,
 *    every binary16 bit pattern, and sizes straddling the 8-lane
 *    vector remainder.
 *  - ULP bounds for the dot kernel (bit-equal is impossible across
 *    accumulation orders) and the <= 1 fp16 ULP guarantee after
 *    binary16 output rounding.
 *  - End-to-end: FPS / ball query / KNN identical across levels, and
 *    thread-count determinism of inference with SIMD active
 *    (SimdDeterminism, in the TSan CI filter).
 *
 * Every test that overrides the dispatch level restores it on exit —
 * dispatch is process-global state shared with the rest of the test
 * binary.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/fp16.h"
#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "nn/mlp.h"
#include "nn/network.h"
#include "ops/fps.h"
#include "ops/neighbor.h"

namespace fc {
namespace {

namespace simd = core::simd;

/** Restores the process-global dispatch level on scope exit. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::activeLevel()) {}
    ~LevelGuard() { simd::setActiveLevel(saved_); }
    LevelGuard(const LevelGuard &) = delete;
    LevelGuard &operator=(const LevelGuard &) = delete;

  private:
    simd::Level saved_;
};

/** Owning SoA triple + view over it. */
struct SoaCloud
{
    std::vector<float> xs, ys, zs;

    simd::SoaView
    view() const
    {
        return {xs.data(), ys.data(), zs.data()};
    }
};

SoaCloud
randomSoa(std::size_t n, std::uint64_t seed, float lo = -1.0f,
          float hi = 1.0f)
{
    Pcg32 rng(seed);
    SoaCloud c;
    c.xs.resize(n);
    c.ys.resize(n);
    c.zs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.xs[i] = rng.uniform(lo, hi);
        c.ys[i] = rng.uniform(lo, hi);
        c.zs[i] = rng.uniform(lo, hi);
    }
    return c;
}

/** Monotone rank of an fp16 bit pattern (sign-magnitude unfolded),
 *  so ULP distance is a plain integer difference. */
int
fp16Rank(std::uint16_t bits)
{
    const int mag = bits & 0x7fff;
    return (bits & 0x8000) ? -mag : mag;
}

/** Sizes that straddle the 8-lane width: empty tail, full tail, and
 *  every remainder in between, plus multi-iteration lengths. */
const std::size_t kRemainderSizes[] = {1,  2,  3,  5,  7,  8,  9,
                                       11, 15, 16, 17, 64, 100, 129};

// ---------------------------------------------------------------------
// Dispatch resolution
// ---------------------------------------------------------------------

TEST(SimdDispatch, ResolveLevelRule)
{
    using simd::Level;
    using simd::resolveLevel;
    // Unset: hardware decides.
    EXPECT_EQ(resolveLevel(true, nullptr), Level::Avx2);
    EXPECT_EQ(resolveLevel(false, nullptr), Level::Scalar);
    // Set and truthy: scalar, even with AVX2 present.
    EXPECT_EQ(resolveLevel(true, "1"), Level::Scalar);
    EXPECT_EQ(resolveLevel(true, "yes"), Level::Scalar);
    EXPECT_EQ(resolveLevel(true, "00"), Level::Scalar);
    // Empty or exactly "0": not forced.
    EXPECT_EQ(resolveLevel(true, ""), Level::Avx2);
    EXPECT_EQ(resolveLevel(true, "0"), Level::Avx2);
    // Forcing scalar on a scalar-only machine is a no-op.
    EXPECT_EQ(resolveLevel(false, "1"), Level::Scalar);
}

TEST(SimdDispatch, LevelNames)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

TEST(SimdDispatch, SetActiveLevelRoundTrip)
{
    LevelGuard guard;
    EXPECT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    const bool honored = simd::setActiveLevel(simd::Level::Avx2);
    EXPECT_EQ(honored, simd::avx2Available());
    EXPECT_EQ(simd::activeLevel(), honored ? simd::Level::Avx2
                                           : simd::Level::Scalar);
}

// ---------------------------------------------------------------------
// Scalar-vs-Avx2 bit-identity
// ---------------------------------------------------------------------

#define FC_REQUIRE_AVX2()                                               \
    do {                                                                \
        if (!simd::avx2Available())                                     \
            GTEST_SKIP() << "AVX2 kernels not available";               \
    } while (0)

TEST(SimdEquivalence, FpsUpdateBitIdentical)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : kRemainderSizes) {
        const SoaCloud cloud = randomSoa(n + 16, n * 7 + 1);
        Pcg32 rng(n * 13 + 5);
        std::vector<std::uint8_t> sampled(n);
        std::vector<float> seed_dist(n);
        for (std::size_t i = 0; i < n; ++i) {
            sampled[i] = rng.uniform() < 0.2f ? 1 : 0;
            seed_dist[i] = rng.uniform(0.0f, 4.0f);
        }
        std::vector<PointIdx> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = static_cast<PointIdx>((i * 5 + 3) % (n + 16));
        const Vec3 query(0.3f, -0.2f, 0.8f);

        // Identity view (offset base) and order view, both levels.
        for (const bool use_order : {false, true}) {
            const PointIdx *order_ptr =
                use_order ? order.data() : nullptr;
            const std::uint32_t base = use_order ? 0u : 4u;

            std::vector<float> dist_scalar = seed_dist;
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
            const simd::FpsPartial ps = simd::fpsUpdate(
                cloud.view(), order_ptr, base, query,
                dist_scalar.data(), sampled.data(), 0,
                static_cast<std::uint32_t>(n));

            std::vector<float> dist_avx2 = seed_dist;
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
            const simd::FpsPartial pa = simd::fpsUpdate(
                cloud.view(), order_ptr, base, query,
                dist_avx2.data(), sampled.data(), 0,
                static_cast<std::uint32_t>(n));

            EXPECT_EQ(ps.best, pa.best) << "n=" << n;
            EXPECT_EQ(ps.pos, pa.pos) << "n=" << n;
            EXPECT_EQ(ps.sampled, pa.sampled) << "n=" << n;
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(dist_scalar[i], dist_avx2[i])
                    << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdEquivalence, FpsUpdateAllEqualPointsTieBreak)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Every candidate at the same spot: every updated distance is
    // equal, so the argmax is decided purely by the tie-break (the
    // earliest index must win, as in the serial loop).
    for (const std::size_t n : kRemainderSizes) {
        SoaCloud cloud;
        cloud.xs.assign(n, 0.25f);
        cloud.ys.assign(n, -0.5f);
        cloud.zs.assign(n, 0.125f);
        std::vector<std::uint8_t> sampled(n, 0);
        sampled[0] = 1; // the tie must go to the first *unsampled*
        const Vec3 query(1.0f, 1.0f, 1.0f);

        for (const simd::Level level :
             {simd::Level::Scalar, simd::Level::Avx2}) {
            std::vector<float> dist(
                n, std::numeric_limits<float>::max());
            ASSERT_TRUE(simd::setActiveLevel(level));
            const simd::FpsPartial p = simd::fpsUpdate(
                cloud.view(), nullptr, 0, query, dist.data(),
                sampled.data(), 0, static_cast<std::uint32_t>(n));
            if (n == 1) {
                // Sole candidate is sampled: nothing updates.
                EXPECT_EQ(p.best, -1.0f);
                EXPECT_EQ(p.sampled, 1u);
            } else {
                EXPECT_EQ(p.pos, 1u)
                    << simd::levelName(level) << " n=" << n;
                EXPECT_EQ(p.sampled, 1u);
            }
        }
    }
}

TEST(SimdEquivalence, Distance2RangeBitIdenticalIncludingDenormals)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : kRemainderSizes) {
        // Denormal-magnitude coordinates: differences and squares run
        // through the gradual-underflow range.
        SoaCloud cloud = randomSoa(n, n + 31);
        const float denorm = std::ldexp(1.0f, -140);
        for (std::size_t i = 0; i < n; i += 3) {
            cloud.xs[i] = denorm * static_cast<float>(i + 1);
            cloud.ys[i] = -denorm;
            cloud.zs[i] = 0.0f;
        }
        const Vec3 query(denorm, 0.0f, 0.5f);
        std::vector<PointIdx> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = static_cast<PointIdx>(n - 1 - i);

        for (const bool use_order : {false, true}) {
            std::vector<float> out_scalar(n), out_avx2(n);
            const PointIdx *order_ptr =
                use_order ? order.data() : nullptr;
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
            simd::distance2Range(cloud.view(), order_ptr, 0, query, 0,
                                 static_cast<std::uint32_t>(n),
                                 out_scalar.data());
            ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
            simd::distance2Range(cloud.view(), order_ptr, 0, query, 0,
                                 static_cast<std::uint32_t>(n),
                                 out_avx2.data());
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(out_scalar[i], out_avx2[i])
                    << "n=" << n << " i=" << i
                    << " order=" << use_order;
        }
    }
}

TEST(SimdEquivalence, AxpyBitIdentical)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : kRemainderSizes) {
        Pcg32 rng(n * 3 + 17);
        std::vector<float> x(n), y_seed(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = rng.uniform(-2.0f, 2.0f);
            y_seed[i] = rng.uniform(-2.0f, 2.0f);
        }
        const float a = 0.37f;

        std::vector<float> y_scalar = y_seed;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        simd::axpy(a, x.data(), y_scalar.data(), n);
        std::vector<float> y_avx2 = y_seed;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        simd::axpy(a, x.data(), y_avx2.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(y_scalar[i], y_avx2[i]) << "n=" << n;
    }
}

TEST(SimdEquivalence, Fp16ConversionsExhaustiveNonNan)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Every one of the 2^16 binary16 patterns except NaN (payloads may
    // legitimately differ, see the header contract), widened exactly:
    // an fp16-valued float must round through binary16 to itself, on
    // both levels — the F16C round trip included.
    std::vector<float> values;
    values.reserve(1u << 16);
    for (std::uint32_t b = 0; b < (1u << 16); ++b) {
        const bool is_nan =
            (b & 0x7c00u) == 0x7c00u && (b & 0x03ffu) != 0;
        if (!is_nan)
            values.push_back(
                fp16BitsToFp32(static_cast<std::uint16_t>(b)));
    }
    for (const simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2}) {
        ASSERT_TRUE(simd::setActiveLevel(level));
        std::vector<float> rounded = values;
        simd::fp16RoundBuffer(rounded.data(), rounded.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint32_t>(rounded[i]),
                      std::bit_cast<std::uint32_t>(values[i]))
                << simd::levelName(level) << " value " << values[i];
    }
}

TEST(SimdEquivalence, Fp32ToFp16MatchesSoftwareConverter)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Random floats across the full rounding range plus the edges:
    // zero signs, overflow, the max normal, fp16 subnormals, and
    // fp32 values far below fp16 range.
    std::vector<float> values = {0.0f,
                                 -0.0f,
                                 1.0f,
                                 65504.0f,
                                 65520.0f, // rounds to +inf
                                 -65520.0f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 std::ldexp(1.0f, -24),
                                 std::ldexp(1.0f, -25), // ties to even
                                 std::ldexp(1.0f, -26), // flushes
                                 1e-30f,
                                 std::ldexp(1.0f, -140)};
    Pcg32 rng(2026);
    for (int i = 0; i < 4096; ++i)
        values.push_back(rng.uniform(-70000.0f, 70000.0f));
    for (int i = 0; i < 4096; ++i)
        values.push_back(rng.uniform(-1.0f, 1.0f));

    std::vector<float> rounded = values;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
    simd::fp16RoundBuffer(rounded.data(), rounded.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(rounded[i], fp16Round(values[i]))
            << "value " << values[i];
}

// ---------------------------------------------------------------------
// Dot kernels: ULP-bounded, not bit-equal
// ---------------------------------------------------------------------

TEST(SimdAccuracy, DotAccWithinDocumentedUlpBound)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{64}, std::size_t{1000}}) {
        Pcg32 rng(n * 97 + 11);
        std::vector<float> a(n), b(n);
        double magnitude = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.uniform(-1.0f, 1.0f);
            b[i] = rng.uniform(-1.0f, 1.0f);
            magnitude += std::abs(static_cast<double>(a[i]) *
                                  static_cast<double>(b[i]));
        }
        const float init = 0.5f;

        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        const float sum_scalar = simd::dotAcc(init, a.data(), b.data(), n);
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        const float sum_avx2 = simd::dotAcc(init, a.data(), b.data(), n);

        // ~(n/8 + 8) float ULP of sum_i |a_i b_i| (see core/simd.h).
        const double ulp =
            static_cast<double>(std::nextafter(
                static_cast<float>(magnitude),
                std::numeric_limits<float>::infinity())) -
            magnitude;
        const double bound =
            (static_cast<double>(n) / 8.0 + 8.0) * ulp;
        EXPECT_NEAR(sum_scalar, sum_avx2, bound) << "n=" << n;

        // After binary16 output rounding the two levels agree to
        // <= 1 fp16 ULP — the form every stored activation takes.
        const int rank_scalar = fp16Rank(fp32ToFp16Bits(sum_scalar));
        const int rank_avx2 = fp16Rank(fp32ToFp16Bits(sum_avx2));
        EXPECT_LE(std::abs(rank_scalar - rank_avx2), 1) << "n=" << n;
    }
}

TEST(SimdAccuracy, LinearReluLevelsAgreeWithinOneFp16Ulp)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    nn::LinearRelu layer(48, 32, 7);
    nn::Tensor x(5, 48);
    Pcg32 rng(99);
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            x.at(r, c) = rng.uniform(-1.0f, 1.0f);
    x.quantizeFp16();

    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    const nn::Tensor y_scalar = layer.forward(x);
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
    const nn::Tensor y_avx2 = layer.forward(x);

    ASSERT_EQ(y_scalar.rows(), y_avx2.rows());
    ASSERT_EQ(y_scalar.cols(), y_avx2.cols());
    for (std::size_t r = 0; r < y_scalar.rows(); ++r)
        for (std::size_t c = 0; c < y_scalar.cols(); ++c) {
            // Outputs are fp16-rounded already; compare their ranks.
            const int rs = fp16Rank(fp32ToFp16Bits(y_scalar.at(r, c)));
            const int ra = fp16Rank(fp32ToFp16Bits(y_avx2.at(r, c)));
            EXPECT_LE(std::abs(rs - ra), 1)
                << "row " << r << " col " << c;
        }
}

// ---------------------------------------------------------------------
// End-to-end equivalence across levels
// ---------------------------------------------------------------------

TEST(SimdEquivalence, GeometryOpsIdenticalAcrossLevels)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    const data::PointCloud scene = data::makeS3disScene(512, 3);
    std::vector<PointIdx> all(scene.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<PointIdx>(i);

    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    const ops::SampleResult fps_scalar =
        ops::farthestPointSample(scene, 64, {}, nullptr);
    const ops::NeighborResult ball_scalar =
        ops::ballQuery(scene, fps_scalar.indices, 0.3f, 8, nullptr);
    const ops::NeighborResult knn_scalar =
        ops::knnSearch(scene, all, scene.coords(), 4);

    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
    const ops::SampleResult fps_avx2 =
        ops::farthestPointSample(scene, 64, {}, nullptr);
    const ops::NeighborResult ball_avx2 =
        ops::ballQuery(scene, fps_scalar.indices, 0.3f, 8, nullptr);
    const ops::NeighborResult knn_avx2 =
        ops::knnSearch(scene, all, scene.coords(), 4);

    EXPECT_EQ(fps_scalar.indices, fps_avx2.indices);
    EXPECT_EQ(ball_scalar.indices, ball_avx2.indices);
    EXPECT_EQ(ball_scalar.counts, ball_avx2.counts);
    EXPECT_EQ(knn_scalar.indices, knn_avx2.indices);
    EXPECT_EQ(knn_scalar.counts, knn_avx2.counts);
}

/** Tiny two-stage segmentation model (SA + FP + head). */
nn::ModelConfig
tinySegModel()
{
    nn::ModelConfig m;
    m.name = "tiny-seg";
    m.long_name = "tiny segmentation";
    m.task = nn::Task::SemanticSegmentation;
    nn::SaStageConfig s0;
    s0.sample_rate = 0.25;
    s0.radius = 0.3f;
    s0.k = 8;
    s0.mlp = {16, 16};
    nn::SaStageConfig s1;
    s1.sample_rate = 0.25;
    s1.radius = 0.6f;
    s1.k = 8;
    s1.mlp = {32, 32};
    m.sa = {s0, s1};
    nn::FpStageConfig f0;
    f0.mlp = {32};
    nn::FpStageConfig f1;
    f1.mlp = {16};
    m.fp = {f0, f1};
    m.head = {13};
    m.num_classes = 13;
    return m;
}

// ---------------------------------------------------------------------
// Thread-count determinism with SIMD active (TSan CI filter)
// ---------------------------------------------------------------------

TEST(SimdDeterminism, FpsIdenticalAcrossThreadCounts)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 9);
    const ops::SampleResult serial =
        ops::farthestPointSample(scene, 256, {}, nullptr);
    for (const unsigned threads : {2u, 4u}) {
        core::ThreadPool pool(threads);
        const ops::SampleResult pooled =
            ops::farthestPointSample(scene, 256, {}, &pool);
        EXPECT_EQ(serial.indices, pooled.indices)
            << threads << " threads";
    }
}

TEST(SimdDeterminism, InferenceIdenticalAcrossThreadCounts)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 21);
    const nn::Network network(tinySegModel(), 7);
    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    const nn::InferenceResult serial = network.run(scene, backend);
    for (const unsigned threads : {2u, 4u}) {
        core::ThreadPool pool(threads);
        nn::BackendOptions pooled_backend = backend;
        pooled_backend.pool = &pool;
        core::Workspace ws;
        nn::InferenceResult pooled;
        network.run(scene, pooled_backend, ws, pooled);
        EXPECT_EQ(serial.embedding.data(), pooled.embedding.data());
        EXPECT_EQ(serial.point_features.data(),
                  pooled.point_features.data());
    }
}

} // namespace
} // namespace fc
