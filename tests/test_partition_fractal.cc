/**
 * @file
 * Unit and property tests for the Fractal partitioner (Alg. 1).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/s3dis.h"
#include "dataset/synthetic.h"
#include "partition/fractal.h"

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

TEST(Fractal, PaperExampleShape)
{
    // The paper's Fig. 6: 80 points, th = 24 yields 4 leaf blocks via
    // 3 split iterations when the distribution is two-sided. Random
    // uniform data gives a similar small tree; verify the invariants
    // rather than exact counts.
    const data::PointCloud cloud = randomCloud(80, 1);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 24;
    const PartitionResult result = p.partition(cloud, config);
    result.tree.validate();
    EXPECT_GE(result.tree.leaves().size(), 4u);
    for (const NodeIdx leaf : result.tree.leaves())
        EXPECT_LE(result.tree.node(leaf).size(), 24u);
}

TEST(Fractal, SplitValueIsExtremaMidpoint)
{
    const data::PointCloud cloud = randomCloud(500, 2);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 64;
    const PartitionResult result = p.partition(cloud, config);
    const BlockTree &tree = result.tree;
    // Root split: midpoint of x extrema over all points.
    const BlockNode &root = tree.node(0);
    ASSERT_FALSE(root.isLeaf());
    float lo = 1e9f, hi = -1e9f;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        lo = std::min(lo, cloud[i][root.splitDim]);
        hi = std::max(hi, cloud[i][root.splitDim]);
    }
    EXPECT_FLOAT_EQ(root.splitValue, (lo + hi) * 0.5f);
    // Children actually respect the split.
    const BlockNode &l = tree.node(root.left);
    for (std::uint32_t pos = l.begin; pos < l.end; ++pos)
        EXPECT_LT(cloud[tree.order()[pos]][root.splitDim],
                  root.splitValue);
    const BlockNode &r = tree.node(root.right);
    for (std::uint32_t pos = r.begin; pos < r.end; ++pos)
        EXPECT_GE(cloud[tree.order()[pos]][root.splitDim],
                  root.splitValue);
}

TEST(Fractal, DimensionsCycle)
{
    const data::PointCloud cloud = randomCloud(2000, 3);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 128;
    const PartitionResult result = p.partition(cloud, config);
    const BlockTree &tree = result.tree;
    // Root splits on x (paper Alg. 1: d = 0); its children on y (unless
    // degenerate, which uniform random data is not).
    const BlockNode &root = tree.node(0);
    EXPECT_EQ(root.splitDim, 0);
    if (!tree.node(root.left).isLeaf()) {
        EXPECT_EQ(tree.node(root.left).splitDim, 1);
    }
    if (!tree.node(root.right).isLeaf()) {
        EXPECT_EQ(tree.node(root.right).splitDim, 1);
    }
}

TEST(Fractal, HandlesCoincidentPoints)
{
    data::PointCloud cloud;
    for (int i = 0; i < 100; ++i)
        cloud.addPoint({1.0f, 2.0f, 3.0f});
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 16;
    const PartitionResult result = p.partition(cloud, config);
    result.tree.validate();
    // Unsplittable: one oversized leaf, with degenerate retries
    // recorded.
    EXPECT_EQ(result.tree.leaves().size(), 1u);
    EXPECT_GT(result.stats.degenerate_retries, 0u);
}

TEST(Fractal, HandlesCoplanarPoints)
{
    // All points in the x = 0 plane: the x axis every split cycles
    // through first is never splittable, but cycling falls through to
    // y/z (paper §VI-D).
    Pcg32 rng(4);
    data::PointCloud cloud;
    for (int i = 0; i < 1000; ++i)
        cloud.addPoint({0.0f, rng.uniform(-1, 1), rng.uniform(-1, 1)});
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 64;
    const PartitionResult result = p.partition(cloud, config);
    result.tree.validate();
    EXPECT_GT(result.stats.degenerate_retries, 0u);
    for (const NodeIdx leaf : result.tree.leaves())
        EXPECT_LE(result.tree.node(leaf).size(), 64u);
}

TEST(Fractal, NoSortsEver)
{
    const data::PointCloud cloud = randomCloud(4096, 5);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 64;
    const PartitionResult result = p.partition(cloud, config);
    EXPECT_EQ(result.stats.num_sorts, 0u);
    EXPECT_EQ(result.stats.sort_compares, 0u);
    EXPECT_GT(result.stats.elements_traversed, 0u);
}

TEST(Fractal, TraversalPassCountMatchesFig5)
{
    // 1K points at BS = 64 partitions in ~4 level passes (Fig. 5);
    // uniform random data is the best case the figure illustrates.
    const data::PointCloud cloud = randomCloud(1024, 6);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 64;
    const PartitionResult result = p.partition(cloud, config);
    EXPECT_GE(result.stats.traversal_passes, 4u);
    EXPECT_LE(result.stats.traversal_passes, 7u);
}

TEST(Fractal, ModeratelyBalancedOnScenes)
{
    const data::PointCloud scene = data::makeS3disScene(20000, 7);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = 256;
    const PartitionResult result = p.partition(scene, config);
    result.tree.validate();
    // Threshold respected and imbalance bounded by th (paper §VI-D).
    EXPECT_LE(result.tree.maxLeafSize(), 256u);
    // Balance: coefficient of variation clearly below the uniform
    // partitioner's on the same scene (checked cross-method in
    // test_partition_others).
    EXPECT_LT(result.tree.leafSizeCv(), 1.0);
}

/** Property sweep: sizes x thresholds. */
class FractalSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::uint32_t>>
{};

TEST_P(FractalSweep, InvariantsHold)
{
    const auto [n, th] = GetParam();
    const data::PointCloud scene = data::makeS3disScene(n, 100 + n);
    FractalPartitioner p;
    PartitionConfig config;
    config.threshold = th;
    const PartitionResult result = p.partition(scene, config);
    result.tree.validate();
    std::uint64_t covered = 0;
    for (const NodeIdx leaf : result.tree.leaves()) {
        EXPECT_LE(result.tree.node(leaf).size(), th);
        covered += result.tree.node(leaf).size();
    }
    EXPECT_EQ(covered, scene.size());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndThresholds, FractalSweep,
    ::testing::Combine(::testing::Values<std::size_t>(64, 1000, 4096,
                                                      16384),
                       ::testing::Values<std::uint32_t>(8, 64, 256,
                                                        1280)));

} // namespace
} // namespace fc::part
