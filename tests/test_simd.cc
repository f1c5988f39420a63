/**
 * @file
 * The core::simd accuracy contract, asserted.
 *
 *  - Dispatch resolution (FC_FORCE_SCALAR rule, setActiveLevel
 *    round-trips) as pure unit tests.
 *  - Scalar-vs-Avx2 equivalence for every kernel the contract calls
 *    bit-identical (fpsUpdate, ballScan, distance2Range, axpy, fp16
 *    rounding), on adversarial inputs: all-equal points, NaN, Inf and
 *    denormal coordinates, every binary16 bit pattern, and sizes
 *    straddling the 8-lane vector remainder.
 *  - Every LinearRelu row kernel the host can run (Scalar, and the
 *    Avx2 table's ymm and zmm kernels, reached through
 *    core::simd::detail) bit-equal to one level-free loop (bias,
 *    ascending inputs, ReLU, fp16Round) over every partial row tile
 *    and partial output panel of both vector tiles, NaN and Inf
 *    included; and, outside its fp16-valued precondition, within the
 *    recursive-summation bound core/simd.h documents.
 *  - End-to-end: FPS / ball query / KNN and PointNet++ inference
 *    identical across levels, and thread-count determinism of
 *    inference with SIMD active (SimdDeterminism, in the TSan CI
 *    filter).
 *
 * Every test that overrides the dispatch level restores it on exit —
 * dispatch is process-global state shared with the rest of the test
 * binary.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fp16.h"
#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "nn/mlp.h"
#include "nn/models.h"
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

TEST(SimdDispatch, Avx2TableRunsTheWidestMlpKernel)
{
    const auto ymm = simd::detail::ymmLinearReluRows();
    const auto zmm = simd::detail::zmmLinearReluRows();
    const simd::detail::Kernels *avx2 = simd::detail::avx2Kernels();
    // Both vector kernels live in the Avx2 table, so neither runs
    // without it.
    EXPECT_EQ(ymm != nullptr, avx2 != nullptr);
    if (avx2 == nullptr) {
        EXPECT_EQ(zmm, nullptr);
        GTEST_SKIP() << "AVX2 kernels not available";
    }
    EXPECT_EQ(avx2->linear_relu_rows, zmm != nullptr ? zmm : ymm);
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
        const Vec3 query(0.3f, -0.2f, 0.8f);
        // A view that starts past the first points (offset base).
        const std::uint32_t base = 4;

        std::vector<float> dist_scalar = seed_dist;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        const simd::FpsPartial ps = simd::fpsUpdate(
            cloud.view(), base, query, dist_scalar.data(),
            sampled.data(), 0, static_cast<std::uint32_t>(n));

        std::vector<float> dist_avx2 = seed_dist;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        const simd::FpsPartial pa = simd::fpsUpdate(
            cloud.view(), base, query, dist_avx2.data(), sampled.data(),
            0, static_cast<std::uint32_t>(n));

        EXPECT_EQ(ps.best, pa.best) << "n=" << n;
        EXPECT_EQ(ps.pos, pa.pos) << "n=" << n;
        EXPECT_EQ(ps.sampled, pa.sampled) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(dist_scalar[i], dist_avx2[i])
                << "n=" << n << " i=" << i;
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
                cloud.view(), 0, query, dist.data(), sampled.data(), 0,
                static_cast<std::uint32_t>(n));
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

/**
 * The ball-query loop ballScan replaced: one distance per position in
 * ascending order, a hit when it is <= radius2, stop at the k-th hit.
 */
simd::BallScan
referenceBallScan(const SoaCloud &cloud, const Vec3 &q, float radius2,
                  std::uint32_t begin, std::uint32_t end, std::size_t k,
                  std::uint32_t *hits)
{
    simd::BallScan s;
    for (std::uint32_t pos = begin; pos < end && s.found < k; ++pos) {
        ++s.examined;
        const float dx = q.x - cloud.xs[pos];
        const float dy = q.y - cloud.ys[pos];
        const float dz = q.z - cloud.zs[pos];
        if (dx * dx + dy * dy + dz * dz <= radius2)
            hits[s.found++] = pos;
    }
    return s;
}

TEST(SimdEquivalence, BallScanBitIdentical)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::ldexp(1.0f, -140);
    for (const std::size_t n : kRemainderSizes) {
        // Three leading points sit before the scanned range, so the
        // positions written are absolute, not range-local.
        const std::uint32_t begin = 3;
        const std::uint32_t end = begin + static_cast<std::uint32_t>(n);
        SoaCloud cloud = randomSoa(end, n * 11 + 7);
        for (std::size_t i = begin; i < end; i += 5) {
            cloud.xs[i] = std::numeric_limits<float>::quiet_NaN();
            if (i + 1 < end)
                cloud.ys[i + 1] = (i % 2 == 0) ? inf : -inf;
            if (i + 2 < end) {
                cloud.xs[i + 2] = denorm * static_cast<float>(i);
                cloud.ys[i + 2] = -denorm;
                cloud.zs[i + 2] = 0.0f;
            }
        }
        const Vec3 query(0.1f, -0.2f, 0.05f);
        // The denormal points' squared distances from the origin
        // underflow to 0, so they hit even at radius 0.
        const Vec3 origin(0.0f, 0.0f, 0.0f);
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, std::size_t{7},
              std::size_t{8}, std::size_t{9}, n, n + 5}) {
            // Radius 0 (exact hits only), a mid radius whose k-th hit
            // falls inside an 8-lane mask, one that covers every
            // finite point, and an infinite one that takes the
            // infinite points too (NaN distances never hit).
            for (const float radius2 : {0.0f, 0.5f, 1.0e30f, inf}) {
                for (const Vec3 &q : {query, origin}) {
                    std::vector<std::uint32_t> ref(k, 0xdeadbeefu);
                    const simd::BallScan want = referenceBallScan(
                        cloud, q, radius2, begin, end, k, ref.data());
                    ref.resize(want.found);
                    for (const simd::Level level :
                         {simd::Level::Scalar, simd::Level::Avx2}) {
                        ASSERT_TRUE(simd::setActiveLevel(level));
                        std::vector<std::uint32_t> hits(k, 0xdeadbeefu);
                        const simd::BallScan got = simd::ballScan(
                            cloud.view(), q, radius2, begin, end, k,
                            hits.data());
                        EXPECT_EQ(got.found, want.found)
                            << simd::levelName(level) << " n=" << n
                            << " k=" << k << " r2=" << radius2;
                        EXPECT_EQ(got.examined, want.examined)
                            << simd::levelName(level) << " n=" << n
                            << " k=" << k << " r2=" << radius2;
                        // Entries past `found` are scratch.
                        hits.resize(got.found);
                        EXPECT_EQ(hits, ref)
                            << simd::levelName(level) << " n=" << n
                            << " k=" << k << " r2=" << radius2;
                    }
                }
            }
        }
    }
}

TEST(SimdEquivalence, BallScanStopsMidMask)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // 24 points, all hits but position 4: with k = 11 the scan must
    // stop at position 11, lane 3 of the second 8-lane step, having
    // examined 12.
    SoaCloud cloud;
    cloud.xs.assign(24, 0.0f);
    cloud.ys.assign(24, 0.0f);
    cloud.zs.assign(24, 0.0f);
    cloud.xs[4] = 5.0f; // one miss in the first step
    for (const simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2}) {
        ASSERT_TRUE(simd::setActiveLevel(level));
        std::vector<std::uint32_t> hits(11);
        const simd::BallScan s = simd::ballScan(
            cloud.view(), Vec3(0.0f, 0.0f, 0.0f), 1.0f, 0, 24, 11,
            hits.data());
        EXPECT_EQ(s.found, 11u) << simd::levelName(level);
        EXPECT_EQ(s.examined, 12u) << simd::levelName(level);
        EXPECT_EQ(hits, (std::vector<std::uint32_t>{0, 1, 2, 3, 5, 6, 7,
                                                    8, 9, 10, 11}))
            << simd::levelName(level);
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

/** The levels this machine runs: Scalar, plus Avx2 when available. */
std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> levels{simd::Level::Scalar};
    if (simd::avx2Available())
        levels.push_back(simd::Level::Avx2);
    return levels;
}

/** Sizes for the partition kernels: the 8-lane remainders, and slices
 *  up to the largest one a partitioner hands a single kernel call
 *  (kSplitParallelCutoff - 1 in partition/detail.h). */
std::vector<std::size_t>
splitSizes()
{
    std::vector<std::size_t> sizes(std::begin(kRemainderSizes),
                                   std::end(kRemainderSizes));
    for (const std::size_t n : {255u, 256u, 257u, 1000u, 4095u, 4096u,
                                4097u, 8191u})
        sizes.push_back(n);
    return sizes;
}

std::uint32_t
bits(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

/** Special values below 0.0f, and at or above it (or unordered). */
const float kBelowZero[] = {-std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::max(), -1.5f,
                            -1.0e-40f, -1.0e-45f};
const float kNotBelowZero[] = {0.0f,
                               -0.0f,
                               std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::max(),
                               1.0e-45f,
                               1.0e-40f,
                               2.5f};

TEST(SimdEquivalence, SplitBelowMatchesStdPartition)
{
    LevelGuard guard;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const char *const kPatterns[] = {"all-left", "all-right", "alternating",
                                     "presorted", "random"};
    for (const std::size_t n : splitSizes()) {
        for (int pattern = 0; pattern < 5; ++pattern) {
            Pcg32 rng(n * 31 + pattern);
            // Split keys in x. Three leading and trailing sentinel
            // positions sit outside the range and must not move.
            const std::uint32_t begin = 3;
            const std::uint32_t end = begin + static_cast<std::uint32_t>(n);
            std::vector<float> keys(end + 3, 7.0f);
            std::vector<float> values{0.0f};
            for (std::uint32_t i = begin; i < end; ++i) {
                const std::uint32_t r = rng.next();
                const float below = kBelowZero[r % 5];
                const float above = kNotBelowZero[r % 8];
                switch (pattern) {
                  case 0: keys[i] = below; break;
                  case 1: keys[i] = above; break;
                  case 2: keys[i] = (i % 2 != 0) ? below : above; break;
                  case 3: keys[i] = static_cast<float>(i); break;
                  default:
                    keys[i] = (r >> 16) % 3 == 0 ? rng.uniform(-1.0f, 1.0f)
                              : (r >> 16) % 2 == 0 ? below
                                                    : above;
                }
            }
            if (pattern == 3)
                values = {static_cast<float>(begin + n / 3)};
            if (pattern == 4)
                values = {0.0f, -0.0f, 1.0e-40f, 0.5f, nan, inf, -inf};
            std::vector<PointIdx> identity(end + 3);
            std::iota(identity.begin(), identity.end(), 0u);
            for (const float value : values) {
                // Reference: std::partition over the ids, keyed like
                // the partition builders' predicate.
                std::vector<PointIdx> want = identity;
                const auto want_mid = static_cast<std::uint32_t>(
                    std::partition(want.begin() + begin,
                                   want.begin() + end,
                                   [&](PointIdx id) {
                                       return keys[id] < value;
                                   }) -
                    want.begin());
                for (const simd::Level level : availableLevels()) {
                    ASSERT_TRUE(simd::setActiveLevel(level));
                    for (const int dim : {0, 1, 2}) {
                        // The keys on axis dim; the other two axes tag
                        // each position so a test sees them move.
                        std::vector<PointIdx> ids = identity;
                        std::vector<float> axes[3];
                        for (int a = 0; a < 3; ++a) {
                            axes[a].resize(ids.size());
                            for (std::uint32_t i = 0; i < ids.size(); ++i)
                                axes[a][i] = a == dim
                                                 ? keys[i]
                                                 : static_cast<float>(
                                                       i * (a + 1));
                        }
                        const simd::SplitArrays arrays{
                            ids.data(), axes[0].data(), axes[1].data(),
                            axes[2].data()};
                        const std::uint32_t mid = simd::splitBelow(
                            arrays, dim, begin, end, value);
                        SCOPED_TRACE(::testing::Message()
                                     << simd::levelName(level)
                                     << " n=" << n << " "
                                     << kPatterns[pattern]
                                     << " value=" << value
                                     << " dim=" << dim);
                        ASSERT_EQ(mid, want_mid);
                        ASSERT_EQ(ids, want);
                        for (std::uint32_t pos = 0; pos < ids.size(); ++pos)
                            for (int a = 0; a < 3; ++a)
                                ASSERT_EQ(bits(axes[a][pos]),
                                          bits(a == dim
                                                   ? keys[ids[pos]]
                                                   : static_cast<float>(
                                                         ids[pos] *
                                                         (a + 1))))
                                    << "position " << pos;
                    }
                }
            }
        }
    }
}

/** The fold core::simd::extrema must reproduce, bit for bit. */
std::pair<float, float>
referenceExtrema(const std::vector<float> &keys, std::size_t begin,
                 std::size_t end)
{
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (std::size_t i = begin; i < end; ++i) {
        lo = std::min(lo, keys[i]);
        hi = std::max(hi, keys[i]);
    }
    return {lo, hi};
}

TEST(SimdEquivalence, ExtremaMatchesSequentialFoldBitwise)
{
    LevelGuard guard;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto check = [](const std::vector<float> &keys,
                          std::uint32_t begin, std::uint32_t end,
                          const char *what) {
        const auto [want_lo, want_hi] = referenceExtrema(keys, begin, end);
        for (const simd::Level level : availableLevels()) {
            ASSERT_TRUE(simd::setActiveLevel(level));
            const auto [lo, hi] = simd::extrema(keys.data(), begin, end);
            EXPECT_EQ(bits(lo), bits(want_lo))
                << simd::levelName(level) << " " << what
                << " [" << begin << ", " << end << ")";
            EXPECT_EQ(bits(hi), bits(want_hi))
                << simd::levelName(level) << " " << what
                << " [" << begin << ", " << end << ")";
        }
    };

    // Empty range: the fold's seeds.
    check({1.0f}, 0, 0, "empty");

    for (const std::size_t n : splitSizes()) {
        const std::uint32_t begin = 1;
        const std::uint32_t end = begin + static_cast<std::uint32_t>(n);
        Pcg32 rng(n * 17 + 3);
        // Mixed special values, NaN included.
        std::vector<float> keys(end + 1);
        for (float &k : keys) {
            const std::uint32_t r = rng.next();
            k = r % 3 == 0 ? kBelowZero[(r >> 8) % 5]
                : r % 3 == 1 ? kNotBelowZero[(r >> 8) % 8]
                             : rng.uniform(-4.0f, 4.0f);
        }
        check(keys, begin, end, "special");

        // Zero extrema: the minimum (then the maximum) is zero, and
        // zeros of both signs sit in different lanes, so only the
        // range's first zero may decide the sign. Ranges that start
        // with NaN too.
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<float> pos_keys(end + 1);
            std::vector<float> neg_keys(end + 1);
            for (std::size_t i = 0; i < pos_keys.size(); ++i) {
                const std::uint32_t r = rng.next();
                const float zero = (r & 1) != 0 ? 0.0f : -0.0f;
                const bool is_zero = (r >> 1) % 4 == 0;
                const bool is_nan = (r >> 3) % 8 == 0;
                const float mag = rng.uniform(1.0e-3f, 3.0f);
                pos_keys[i] = is_nan ? nan : is_zero ? zero : mag;
                neg_keys[i] = is_nan ? nan : is_zero ? zero : -mag;
            }
            if (trial % 2 == 1) {
                pos_keys[begin] = nan;
                neg_keys[begin] = nan;
            }
            check(pos_keys, begin, end, "zero minimum");
            check(neg_keys, begin, end, "zero maximum");
        }

        // Every key zero, the signs mixed: both extrema are the first.
        std::vector<float> zeros(end + 1);
        for (std::size_t i = 0; i < zeros.size(); ++i)
            zeros[i] = (rng.next() & 1) != 0 ? 0.0f : -0.0f;
        check(zeros, begin, end, "all zero");

        // Only NaN: the seeds come back.
        check(std::vector<float>(end + 1, nan), begin, end, "all NaN");
    }

    // The lane order disagrees with the range order: -0 in lane 1 of
    // the second step, +0 in lane 2 of the first.
    std::vector<float> keys(24, 5.0f);
    keys[9] = -0.0f;
    keys[2] = 0.0f;
    check(keys, 0, 24, "+0 first, -0 in an earlier lane");
    keys[2] = -0.0f;
    keys[9] = 0.0f;
    check(keys, 0, 24, "-0 first, +0 in an earlier lane");
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
// LinearRelu row kernel: bit-equal to one level-free loop
// ---------------------------------------------------------------------

/** Bit patterns of @p values, so NaN payloads and zero signs count. */
std::vector<std::uint32_t>
bitsOf(const std::vector<float> &values)
{
    std::vector<std::uint32_t> bits(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        bits[i] = std::bit_cast<std::uint32_t>(values[i]);
    return bits;
}

/** Output o of row r before the ReLU, as the historical LinearRelu
 *  loop computes it: the bias seeds an fp32 accumulator, then one
 *  mul+add per input in ascending order over row-major @p w. */
float
referenceSum(const std::vector<float> &w, const std::vector<float> &bias,
             std::size_t in, const std::vector<float> &x, std::size_t r,
             std::size_t o)
{
    float acc = bias[o];
    for (std::size_t i = 0; i < in; ++i)
        acc += w[o * in + i] * x[r * in + i];
    return acc;
}

/** The reference linearReluRows must match at every level:
 *  referenceSum, ReLU, then the software binary16 rounding. */
std::vector<float>
referenceLinearRelu(const std::vector<float> &w,
                    const std::vector<float> &bias, std::size_t in,
                    std::size_t out, const std::vector<float> &x,
                    std::size_t rows)
{
    std::vector<float> y(rows * out);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t o = 0; o < out; ++o) {
            float acc = referenceSum(w, bias, in, x, r, o);
            if (acc < 0.0f)
                acc = 0.0f;
            y[r * out + o] = fp16Round(acc);
        }
    return y;
}

/** A linearReluRows kernel and the name a failure prints. */
struct NamedLinearKernel
{
    const char *name;
    simd::detail::LinearReluRowsFn run;
};

/**
 * Every linearReluRows kernel this host can run: the Scalar table's,
 * then the Avx2 table's ymm and zmm kernels where the build and the
 * CPU have them. Prints the names, so a test log shows which ran.
 */
std::vector<NamedLinearKernel>
linearKernels(const char *test)
{
    LevelGuard guard;
    simd::setActiveLevel(simd::Level::Scalar);
    std::vector<NamedLinearKernel> kernels = {
        {"scalar", simd::detail::active().linear_relu_rows}};
    if (const auto ymm = simd::detail::ymmLinearReluRows())
        kernels.push_back({"ymm", ymm});
    if (const auto zmm = simd::detail::zmmLinearReluRows())
        kernels.push_back({"zmm", zmm});
    std::string names;
    for (const NamedLinearKernel &kernel : kernels)
        names += std::string(" ") + kernel.name;
    std::cout << "[ kernels  ] " << test << ":" << names << std::endl;
    return kernels;
}

TEST(SimdEquivalence, LinearReluRowsMatchesDotAccLoopBitwise)
{
    constexpr std::ptrdiff_t kLinearGuard = simd::kLinearPanel;
    // in: from 1 up past the widest semseg remainders (6, 67, 131,
    // 259) to 768. rows: every partial row tile of the 6-row ymm and
    // 8-row zmm tiles, whole tiles (6, 8, 16, 24, 64), and whole tiles
    // plus a remainder (7, 9, 12, 15, 17). out: partial panels alone
    // (1, 2, 3, 13), one whole panel (16), one whole zmm panel pair
    // (32), a pair and a whole single panel (48) or a partial one (33),
    // a whole panel and a partial one (17), and two pairs (64).
    const std::size_t ins[] = {1,  3,  6,  8,   9,   16, 17,
                               24, 27, 67, 131, 259, 768};
    const std::size_t row_counts[] = {1, 2,  3,  4,  5,  6,  7, 8,
                                      9, 12, 15, 16, 17, 24, 64};
    const std::size_t outs[] = {1, 2, 3, 13, 16, 17, 32, 33, 48, 64};
    for (const NamedLinearKernel &kernel :
         linearKernels("LinearReluRowsMatchesDotAccLoopBitwise"))
        for (const std::size_t in : ins)
            for (const std::size_t out : outs) {
                Pcg32 rng(in * 131 + out);
                std::vector<float> w(out * in), bias(out);
                for (float &v : w)
                    v = fp16Round(rng.uniform(-1.0f, 1.0f));
                for (float &v : bias)
                    v = rng.uniform(-0.5f, 0.5f);
                const std::vector<float> packed =
                    simd::packLinearWeights(w.data(), in, out);
                for (const std::size_t rows : row_counts) {
                    std::vector<float> x(rows * in);
                    for (float &v : x)
                        v = fp16Round(rng.uniform(-1.0f, 1.0f));
                    // A NaN and an infinity must travel through the
                    // ReLU and the rounding exactly as in the loop,
                    // in a narrower tile and in a whole one.
                    if (rows == 7 || rows == 17) {
                        x[3 * in] =
                            std::numeric_limits<float>::quiet_NaN();
                        x[5 * in + in - 1] =
                            std::numeric_limits<float>::infinity();
                    }
                    // Guard lanes after the last row hold -1, which
                    // no ReLU output is: a store past the rows shows.
                    std::vector<float> y(rows * out + kLinearGuard,
                                         -1.0f);
                    kernel.run(packed.data(), bias.data(), in, out,
                               x.data(), rows, y.data());
                    EXPECT_EQ(std::count(y.end() - kLinearGuard, y.end(),
                                         -1.0f),
                              kLinearGuard)
                        << kernel.name << " wrote past the rows, in="
                        << in << " rows=" << rows << " out=" << out;
                    y.resize(rows * out);
                    EXPECT_EQ(bitsOf(y), bitsOf(referenceLinearRelu(
                                             w, bias, in, out, x, rows)))
                        << kernel.name << " in=" << in
                        << " rows=" << rows << " out=" << out;
                }
            }
}

TEST(SimdEquivalence, LinearReluLayerBitIdenticalAcrossLevels)
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
    EXPECT_EQ(bitsOf(y_scalar.data()), bitsOf(y_avx2.data()));
}

/** gamma(n) = n u / (1 - n u) with u = 2^-24, the relative error
 *  bound of n successive fp32 roundings. */
double
summationGamma(std::size_t n)
{
    const double nu = static_cast<double>(n) * std::ldexp(1.0, -24);
    return nu / (1.0 - nu);
}

/** Largest float <= @p v (directed rounding of a double). */
float
floatBelow(double v)
{
    const float f = static_cast<float>(v);
    return static_cast<double>(f) > v
               ? std::nextafter(f, -std::numeric_limits<float>::infinity())
               : f;
}

/** Smallest float >= @p v. */
float
floatAbove(double v)
{
    const float f = static_cast<float>(v);
    return static_cast<double>(f) < v
               ? std::nextafter(f, std::numeric_limits<float>::infinity())
               : f;
}

TEST(SimdAccuracy, LinearReluOutsideFp16PreconditionWithinSummationBound)
{
    // Weights and inputs NOT rounded to fp16: products round at Scalar
    // but not under the vector kernels' FMA, so they may differ. Before
    // the ReLU and fp16 rounding the fp32 sums must stay within
    // 2 * gamma(in + 1) * (|bias| + sum_i |w_i x_i|) (core/simd.h);
    // both of those steps are monotone, so each vector kernel's output
    // must lie between the images of the Scalar sum minus and plus that
    // bound. The ymm and zmm kernels run the same FMA sequence per
    // lane, so they must agree bit for bit. 9 rows: a whole zmm tile
    // and a narrower one, a whole ymm tile and a narrower one.
    const std::vector<NamedLinearKernel> kernels = linearKernels(
        "LinearReluOutsideFp16PreconditionWithinSummationBound");
    const std::size_t rows = 9;
    for (const std::size_t in : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}, std::size_t{259},
                                 std::size_t{1000}})
        for (const std::size_t out : {std::size_t{17}, std::size_t{33}}) {
            Pcg32 rng(in * 7 + out);
            std::vector<float> w(out * in), bias(out), x(rows * in);
            for (float &v : w)
                v = rng.uniform(-1.0f, 1.0f);
            for (float &v : bias)
                v = rng.uniform(-0.5f, 0.5f);
            for (float &v : x)
                v = rng.uniform(-1.0f, 1.0f);
            const std::vector<float> packed =
                simd::packLinearWeights(w.data(), in, out);
            std::vector<std::vector<float>> ys;
            for (const NamedLinearKernel &kernel : kernels) {
                ys.emplace_back(rows * out);
                kernel.run(packed.data(), bias.data(), in, out, x.data(),
                           rows, ys.back().data());
            }
            // Scalar is the reference loop whatever its operands.
            EXPECT_EQ(bitsOf(ys[0]),
                      bitsOf(referenceLinearRelu(w, bias, in, out, x,
                                                 rows)))
                << "in=" << in << " out=" << out;
            if (ys.size() == 3) {
                EXPECT_EQ(bitsOf(ys[1]), bitsOf(ys[2]))
                    << "ymm vs zmm, in=" << in << " out=" << out;
            }

            const auto relu16 = [](float v) {
                return fp16Round(v < 0.0f ? 0.0f : v);
            };
            for (std::size_t r = 0; r < rows; ++r)
                for (std::size_t o = 0; o < out; ++o) {
                    double magnitude = std::abs(bias[o]);
                    for (std::size_t i = 0; i < in; ++i)
                        magnitude +=
                            std::abs(static_cast<double>(w[o * in + i]) *
                                     x[r * in + i]);
                    const double bound =
                        2.0 * summationGamma(in + 1) * magnitude;
                    const double sum = referenceSum(w, bias, in, x, r, o);
                    for (std::size_t k = 1; k < ys.size(); ++k) {
                        const float y = ys[k][r * out + o];
                        EXPECT_GE(y, relu16(floatBelow(sum - bound)))
                            << kernels[k].name << " in=" << in
                            << " r=" << r << " o=" << o;
                        EXPECT_LE(y, relu16(floatAbove(sum + bound)))
                            << kernels[k].name << " in=" << in
                            << " r=" << r << " o=" << o;
                    }
                }
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

TEST(SimdEquivalence, InferenceIdenticalAcrossLevels)
{
    FC_REQUIRE_AVX2();
    LevelGuard guard;
    // Every MLP input is fp16-valued, so the whole network, not just
    // one layer, must come out bit for bit the same at both levels.
    const data::PointCloud scene = data::makeS3disScene(1024, 5);
    const nn::Network network(nn::pointNet2SemSeg(), 3);
    for (const nn::Aggregation order :
         {nn::Aggregation::Eager, nn::Aggregation::Delayed}) {
        nn::BackendOptions backend;
        backend.method = part::Method::Fractal;
        backend.aggregation = order;
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        const nn::InferenceResult scalar = network.run(scene, backend);
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Avx2));
        const nn::InferenceResult avx2 = network.run(scene, backend);
        const bool delayed = order == nn::Aggregation::Delayed;
        EXPECT_EQ(bitsOf(scalar.embedding.data()),
                  bitsOf(avx2.embedding.data()))
            << "delayed=" << delayed;
        EXPECT_EQ(bitsOf(scalar.point_features.data()),
                  bitsOf(avx2.point_features.data()))
            << "delayed=" << delayed;
    }
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

TEST(SimdDeterminism, LinearReluIdenticalAcrossThreadCounts)
{
    // Row counts that are not a multiple of 24, the grain unit of
    // both vector kernels' row tiles, so the last chunk (pooled or
    // sequential) ends in a narrower tile at each: 1001 rows in chunks
    // of 48 end in 41 (5 x 8 + 1, 6 x 6 + 5), and 517 rows in chunks
    // of 24 end in 13 (8 + 5, 2 x 6 + 1).
    const struct
    {
        std::size_t in, out, rows;
    } shapes[] = {{131, 128, 1001}, {320, 256, 517}};
    for (const auto &shape : shapes) {
        const nn::LinearRelu layer(shape.in, shape.out, 11);
        nn::Tensor x(shape.rows, shape.in);
        Pcg32 rng(shape.in);
        for (float &v : x.data())
            v = rng.uniform(-1.0f, 1.0f);
        x.quantizeFp16();
        const nn::Tensor serial = layer.forward(x);
        for (const unsigned threads : {2u, 4u}) {
            core::ThreadPool pool(threads);
            nn::Tensor pooled;
            layer.forward(x, &pool, pooled);
            EXPECT_EQ(bitsOf(serial.data()), bitsOf(pooled.data()))
                << shape.in << "->" << shape.out << ", " << threads
                << " threads";
        }
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
