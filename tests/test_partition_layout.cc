/**
 * @file
 * Every partitioner builds inside its BlockTree: it loads the cloud
 * into order() and points() and splits the four arrays together. These
 * tests pin what that must preserve, for every method, with no pool
 * and on 2- and 8-thread pools (the pooled cases run in CI's TSan
 * filter), at both SIMD levels, on a LiDAR frame, an indoor scene and
 * adversarial clouds: all-duplicate points, NaN coordinates, a
 * cluster with NaN x, signed zeros and denormals, spans beyond
 * FLT_MAX, and collinear points.
 *
 *  - points() holds cloud[order()[pos]] at every position, bitwise;
 *  - every node's bounds are the Aabb fold of its points, bitwise;
 *  - the tree, stats included, is the one built with no pool at the
 *    Scalar level, field for field.
 */

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "dataset/synthetic.h"
#include "partition/partitioner.h"

namespace fc::part {
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

std::uint32_t
bits(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

struct NamedCloud
{
    std::string name;
    data::PointCloud cloud;
};

/** Above kSplitParallelCutoff, so the chunked split runs too. */
constexpr std::size_t kAdversarialPoints = 12000;

std::vector<NamedCloud>
layoutClouds()
{
    std::vector<NamedCloud> clouds;
    Pcg32 lidar_rng(1);
    clouds.push_back({"lidar", data::makeLidarFrame(lidar_rng, 32768)});
    clouds.push_back({"s3dis", data::makeS3disScene(8192, 5)});

    Pcg32 rng(77);
    const std::size_t n = kAdversarialPoints;
    std::vector<Vec3> dup(n, Vec3(1.0f, -2.0f, 0.5f));
    clouds.push_back({"duplicates", data::PointCloud(dup)});

    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<Vec3> with_nan(n);
    for (Vec3 &p : with_nan) {
        p = {rng.uniform(-5.0f, 5.0f), rng.uniform(-5.0f, 5.0f),
             rng.uniform(-1.0f, 1.0f)};
        for (int d = 0; d < 3; ++d)
            if (rng.uniform(0.0f, 1.0f) < 0.015f)
                p.at(d) = nan;
    }
    clouds.push_back({"nan", data::PointCloud(with_nan)});

    // Half in the unit cube, half a cluster whose x is NaN: every
    // node holding only the cluster has an x range no point set, and
    // its y range must still reach the ancestors' bounds.
    // Its own generator keeps the other clouds' draws unchanged.
    Pcg32 cluster_rng(91);
    std::vector<Vec3> nan_x(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 0)
            nan_x[i] = {cluster_rng.uniform(0.0f, 1.0f),
                        cluster_rng.uniform(0.0f, 1.0f),
                        cluster_rng.uniform(0.0f, 1.0f)};
        else
            nan_x[i] = {nan, cluster_rng.uniform(10.0f, 20.0f),
                        cluster_rng.uniform(0.0f, 1.0f)};
    }
    clouds.push_back({"nan-x-cluster", data::PointCloud(nan_x)});

    const float tiny[] = {0.0f, -0.0f, 1.0e-45f, -1.0e-45f,
                          1.0e-40f, -1.0e-40f, 3.0e-39f, -3.0e-39f};
    std::vector<Vec3> zeros(n);
    for (Vec3 &p : zeros)
        p = {tiny[rng.next() % 8], tiny[rng.next() % 8],
             tiny[rng.next() % 8]};
    clouds.push_back({"zeros-denormals", data::PointCloud(zeros)});

    std::vector<Vec3> huge(n);
    for (Vec3 &p : huge)
        // Scaled after drawing: the span exceeds FLT_MAX.
        p = {rng.uniform(-1.0f, 1.0f) * 3e38f,
             rng.uniform(-1.0f, 1.0f) * 3e38f, rng.uniform(-1.0f, 1.0f)};
    clouds.push_back({"huge-span", data::PointCloud(huge)});

    std::vector<Vec3> line(n);
    for (Vec3 &p : line) {
        const float t = rng.uniform(-1.0f, 1.0f);
        p = {t, 2.0f * t, -t};
    }
    clouds.push_back({"collinear", data::PointCloud(line)});
    return clouds;
}

/** points() is cloud[order()[pos]] and bounds are the fold, bitwise. */
void
expectLayoutFollowsCloud(const PartitionResult &result,
                         const data::PointCloud &cloud)
{
    const BlockTree &tree = result.tree;
    ASSERT_EQ(tree.numPoints(), cloud.size());
    ASSERT_TRUE(tree.hasPoints());
    const simd::SoaView pts = tree.points();
    for (std::uint32_t pos = 0; pos < tree.numPoints(); ++pos) {
        const Vec3 &p = cloud[tree.order()[pos]];
        ASSERT_EQ(bits(pts.xs[pos]), bits(p.x)) << "position " << pos;
        ASSERT_EQ(bits(pts.ys[pos]), bits(p.y)) << "position " << pos;
        ASSERT_EQ(bits(pts.zs[pos]), bits(p.z)) << "position " << pos;
    }
    for (std::size_t i = 0; i < tree.numNodes(); ++i) {
        const BlockNode &node = tree.node(static_cast<NodeIdx>(i));
        Aabb fold;
        for (std::uint32_t pos = node.begin; pos < node.end; ++pos)
            fold.extend(cloud[tree.order()[pos]]);
        for (int d = 0; d < 3; ++d) {
            ASSERT_EQ(bits(node.bounds.lo[d]), bits(fold.lo[d]))
                << "node " << i << " axis " << d;
            ASSERT_EQ(bits(node.bounds.hi[d]), bits(fold.hi[d]))
                << "node " << i << " axis " << d;
        }
    }
}

/** Field-for-field equality of two partition results. */
void
expectSameResult(const PartitionResult &got, const PartitionResult &want)
{
    const BlockTree &a = got.tree;
    const BlockTree &b = want.tree;
    ASSERT_EQ(a.order(), b.order());
    ASSERT_EQ(a.leaves(), b.leaves());
    ASSERT_EQ(a.numNodes(), b.numNodes());
    for (std::size_t i = 0; i < a.numNodes(); ++i) {
        const BlockNode &x = a.node(static_cast<NodeIdx>(i));
        const BlockNode &y = b.node(static_cast<NodeIdx>(i));
        ASSERT_EQ(x.begin, y.begin) << "node " << i;
        ASSERT_EQ(x.end, y.end) << "node " << i;
        ASSERT_EQ(x.parent, y.parent) << "node " << i;
        ASSERT_EQ(x.left, y.left) << "node " << i;
        ASSERT_EQ(x.right, y.right) << "node " << i;
        ASSERT_EQ(x.depth, y.depth) << "node " << i;
        ASSERT_EQ(x.splitDim, y.splitDim) << "node " << i;
        ASSERT_EQ(bits(x.splitValue), bits(y.splitValue)) << "node " << i;
        for (int d = 0; d < 3; ++d) {
            ASSERT_EQ(bits(x.bounds.lo[d]), bits(y.bounds.lo[d]))
                << "node " << i;
            ASSERT_EQ(bits(x.bounds.hi[d]), bits(y.bounds.hi[d]))
                << "node " << i;
        }
    }
    const PartitionStats &s = got.stats;
    const PartitionStats &t = want.stats;
    EXPECT_EQ(s.elements_traversed, t.elements_traversed);
    EXPECT_EQ(s.traversal_passes, t.traversal_passes);
    EXPECT_EQ(s.num_sorts, t.num_sorts);
    EXPECT_EQ(s.sort_compares, t.sort_compares);
    EXPECT_EQ(s.degenerate_retries, t.degenerate_retries);
    EXPECT_EQ(s.num_splits, t.num_splits);
}

class PartitionLayout : public ::testing::TestWithParam<Method>
{};

TEST_P(PartitionLayout, FollowsTheCloudAtEveryPoolAndLevel)
{
    LevelGuard guard;
    const auto partitioner = makePartitioner(GetParam());
    PartitionConfig config;
    config.threshold = 64;
    core::ThreadPool pool2(2);
    core::ThreadPool pool8(8);
    core::ThreadPool *const pools[] = {nullptr, &pool2, &pool8};
    std::vector<simd::Level> levels{simd::Level::Scalar};
    if (simd::avx2Available())
        levels.push_back(simd::Level::Avx2);

    for (const NamedCloud &c : layoutClouds()) {
        SCOPED_TRACE(c.name);
        ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
        const PartitionResult reference =
            partitioner->partition(c.cloud, config);
        expectLayoutFollowsCloud(reference, c.cloud);
        for (const simd::Level level : levels) {
            ASSERT_TRUE(simd::setActiveLevel(level));
            for (core::ThreadPool *pool : pools) {
                SCOPED_TRACE(::testing::Message()
                             << simd::levelName(level) << " threads="
                             << (pool != nullptr ? pool->numThreads() : 0));
                // Cold, then warm in place: the warm rebuild reuses
                // the arrays' capacity and must not differ.
                core::Workspace ws;
                PartitionResult result;
                for (int pass = 0; pass < 2; ++pass) {
                    ws.reset();
                    partitioner->partitionInto(c.cloud, config, pool, ws,
                                               result);
                    expectSameResult(result, reference);
                }
                expectLayoutFollowsCloud(result, c.cloud);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PartitionLayout,
    ::testing::Values(Method::None, Method::Uniform, Method::Octree,
                      Method::KdTree, Method::Fractal),
    [](const ::testing::TestParamInfo<Method> &info) {
        return methodName(info.param);
    });

} // namespace
} // namespace fc::part
