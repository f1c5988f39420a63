/**
 * @file
 * Tests for the KD-tree, uniform, octree, and none partitioners, plus
 * the cross-method comparisons the paper's Fig. 3 is built on.
 */

#include <bit>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/parallel.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "partition/partitioner.h"

namespace fc::part {
namespace {

data::PointCloud
randomCloud(std::size_t n, std::uint64_t seed)
{
    Pcg32 rng(seed);
    data::PointCloud cloud;
    for (std::size_t i = 0; i < n; ++i)
        cloud.addPoint({rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)});
    return cloud;
}

TEST(KdTree, StrictlyBalancedLeaves)
{
    const data::PointCloud scene = data::makeS3disScene(8192, 1);
    const auto p = makePartitioner(Method::KdTree);
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult result = p->partition(scene, config);
    result.tree.validate();
    // Median splits keep leaf sizes within a factor 2 overall.
    EXPECT_LE(result.tree.maxLeafSize(), 256u);
    EXPECT_GE(result.tree.minLeafSize(), 128u);
    EXPECT_LT(result.tree.leafSizeCv(), 0.25);
}

TEST(KdTree, SortCountMatchesFig5)
{
    // Fig. 5: 1K points at BS=64 costs 15 sorts (internal nodes of a
    // 16-leaf balanced tree).
    const data::PointCloud cloud = randomCloud(1024, 2);
    const auto p = makePartitioner(Method::KdTree);
    PartitionConfig config;
    config.threshold = 64;
    const PartitionResult result = p->partition(cloud, config);
    EXPECT_EQ(result.stats.num_sorts, 15u);
    EXPECT_EQ(result.tree.leaves().size(), 16u);
}

TEST(KdTree, LargeScaleSortCount)
{
    // Fig. 5: 289K points at BS=256 costs 2047 sorts. Our synthetic
    // scene reproduces the same tree arithmetic: ceil to the next
    // power-of-two leaf count.
    const data::PointCloud scene = data::makeS3disScene(289000, 3);
    const auto p = makePartitioner(Method::KdTree);
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult result = p->partition(scene, config);
    EXPECT_EQ(result.stats.num_sorts, 2047u);
}

TEST(Uniform, FixedDepthAndImbalance)
{
    const data::PointCloud scene = data::makeS3disScene(8192, 4);
    const auto p = makePartitioner(Method::Uniform);
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult result = p->partition(scene, config);
    result.tree.validate();
    // 8192/256 = 32 blocks -> every leaf at depth 5 (some possibly
    // empty).
    EXPECT_EQ(result.tree.leaves().size(), 32u);
    for (const NodeIdx leaf : result.tree.leaves())
        EXPECT_EQ(result.tree.node(leaf).depth, 5u);
    // Space-uniform splits on a clustered scene overflow the
    // threshold somewhere.
    EXPECT_GT(result.tree.maxLeafSize(), 256u);
}

TEST(Uniform, SplitsAtSpaceMidpoints)
{
    const data::PointCloud cloud = randomCloud(512, 5);
    const auto p = makePartitioner(Method::Uniform);
    PartitionConfig config;
    config.threshold = 128;
    const PartitionResult result = p->partition(cloud, config);
    const Aabb box = cloud.bounds();
    const BlockNode &root = result.tree.node(0);
    ASSERT_FALSE(root.isLeaf());
    EXPECT_FLOAT_EQ(root.splitValue, box.midpoint(root.splitDim));
}

TEST(Octree, ThresholdRespectedWhereSplittable)
{
    const data::PointCloud scene = data::makeS3disScene(8192, 6);
    const auto p = makePartitioner(Method::Octree);
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult result = p->partition(scene, config);
    result.tree.validate();
    for (const NodeIdx leaf : result.tree.leaves())
        EXPECT_LE(result.tree.node(leaf).size(), 256u);
}

TEST(Octree, AdaptiveDepthVariesWithDensity)
{
    const data::PointCloud scene = data::makeS3disScene(16384, 7);
    const auto p = makePartitioner(Method::Octree);
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult result = p->partition(scene, config);
    std::uint16_t min_depth = 64, max_depth = 0;
    for (const NodeIdx leaf : result.tree.leaves()) {
        min_depth = std::min(min_depth, result.tree.node(leaf).depth);
        max_depth = std::max(max_depth, result.tree.node(leaf).depth);
    }
    EXPECT_GT(max_depth, min_depth)
        << "octree should subdivide dense regions deeper";
}

TEST(None, SingleBlock)
{
    const data::PointCloud cloud = randomCloud(100, 8);
    const auto p = makePartitioner(Method::None);
    const PartitionResult result = p->partition(cloud, {});
    result.tree.validate();
    EXPECT_EQ(result.tree.leaves().size(), 1u);
    EXPECT_EQ(result.tree.node(0).size(), 100u);
}

TEST(CrossMethod, BalanceOrderingMatchesFig3)
{
    // KD-tree (density-aware) is strictly balanced; Fractal is
    // moderately balanced; uniform is imbalanced. Paper Fig. 3.
    const data::PointCloud scene = data::makeS3disScene(16384, 9);
    PartitionConfig config;
    config.threshold = 256;
    const double cv_kd =
        makePartitioner(Method::KdTree)
            ->partition(scene, config)
            .tree.leafSizeCv();
    const double cv_fractal =
        makePartitioner(Method::Fractal)
            ->partition(scene, config)
            .tree.leafSizeCv();
    const double cv_uniform =
        makePartitioner(Method::Uniform)
            ->partition(scene, config)
            .tree.leafSizeCv();
    EXPECT_LT(cv_kd, cv_fractal);
    EXPECT_LT(cv_fractal, cv_uniform);
}

TEST(CrossMethod, WorkOrderingMatchesFig5)
{
    // KD-tree pays thousands of serial sorts; Fractal pays a handful
    // of parallel traversal passes.
    const data::PointCloud scene = data::makeS3disScene(65536, 10);
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult kd =
        makePartitioner(Method::KdTree)->partition(scene, config);
    const PartitionResult fractal =
        makePartitioner(Method::Fractal)->partition(scene, config);
    // At 64K/BS256 the KD tree needs 255 serial sorts vs ~11-15
    // fractal passes; the gap widens with n (2047 vs 11 at 289K,
    // Fig. 5 -- covered by KdTree.LargeScaleSortCount).
    EXPECT_GT(kd.stats.traversal_passes,
              10 * fractal.stats.traversal_passes);
    EXPECT_GT(kd.stats.sort_compares, 0u);
    EXPECT_EQ(fractal.stats.sort_compares, 0u);
}

TEST(MethodNames, AllDistinct)
{
    EXPECT_EQ(methodName(Method::None), "none");
    EXPECT_EQ(methodName(Method::Uniform), "uniform");
    EXPECT_EQ(methodName(Method::Octree), "octree");
    EXPECT_EQ(methodName(Method::KdTree), "kdtree");
    EXPECT_EQ(methodName(Method::Fractal), "fractal");
}

/** Property sweep across every method. */
class MethodSweep : public ::testing::TestWithParam<Method>
{};

TEST_P(MethodSweep, TreeInvariants)
{
    const data::PointCloud scene = data::makeS3disScene(4096, 11);
    PartitionConfig config;
    config.threshold = 128;
    const PartitionResult result =
        makePartitioner(GetParam())->partition(scene, config);
    result.tree.validate();
    std::uint64_t covered = 0;
    for (const NodeIdx leaf : result.tree.leaves())
        covered += result.tree.node(leaf).size();
    EXPECT_EQ(covered, scene.size());
}

/** Every position of tree.points() is bitwise cloud[order[pos]]. */
void
expectPointsInDftOrder(const BlockTree &tree,
                       const data::PointCloud &cloud)
{
    ASSERT_EQ(tree.numPoints(), cloud.size());
    ASSERT_TRUE(tree.hasPoints());
    const core::simd::SoaView pts = tree.points();
    for (std::uint32_t pos = 0; pos < tree.numPoints(); ++pos) {
        const Vec3 &p = cloud[tree.order()[pos]];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pts.xs[pos]),
                  std::bit_cast<std::uint32_t>(p.x))
            << "pos " << pos;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pts.ys[pos]),
                  std::bit_cast<std::uint32_t>(p.y))
            << "pos " << pos;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pts.zs[pos]),
                  std::bit_cast<std::uint32_t>(p.z))
            << "pos " << pos;
    }
}

TEST_P(MethodSweep, PointsFollowDftOrder)
{
    const data::PointCloud scene = data::makeS3disScene(4096, 12);
    const data::PointCloud smaller = randomCloud(1500, 13);
    PartitionConfig config;
    config.threshold = 128;
    const auto partitioner = makePartitioner(GetParam());

    // Cold, through the value-returning entry.
    const PartitionResult cold = partitioner->partition(scene, config);
    expectPointsInDftOrder(cold.tree, scene);

    // Cold then warm in place on a pool, then a smaller cloud into
    // the same result: the arrays shrink within capacity.
    core::ThreadPool pool(2);
    core::Workspace ws;
    PartitionResult part;
    for (int pass = 0; pass < 2; ++pass) {
        ws.reset();
        partitioner->partitionInto(scene, config, &pool, ws, part);
        expectPointsInDftOrder(part.tree, scene);
    }
    ws.reset();
    partitioner->partitionInto(smaller, config, &pool, ws, part);
    expectPointsInDftOrder(part.tree, smaller);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodSweep,
                         ::testing::Values(Method::None, Method::Uniform,
                                           Method::Octree,
                                           Method::KdTree,
                                           Method::Fractal));

} // namespace
} // namespace fc::part
