/**
 * @file
 * Unit tests for the BlockTree structure.
 */

#include <gtest/gtest.h>

#include "dataset/point_cloud.h"
#include "ops/fps.h"
#include "ops/interpolate.h"
#include "ops/neighbor.h"
#include "partition/block_tree.h"
#include "partition/fractal.h"

namespace fc::part {
namespace {

/** Hand-built tree: root -> (left leaf, right internal -> 2 leaves). */
BlockTree
makeManualTree()
{
    BlockTree tree(10);
    BlockNode root;
    root.begin = 0;
    root.end = 10;
    tree.addNode(root);

    BlockNode l;
    l.begin = 0;
    l.end = 4;
    l.parent = 0;
    l.depth = 1;
    BlockNode r;
    r.begin = 4;
    r.end = 10;
    r.parent = 0;
    r.depth = 1;
    const NodeIdx li = tree.addNode(l);
    const NodeIdx ri = tree.addNode(r);
    tree.node(0).left = li;
    tree.node(0).right = ri;
    tree.node(0).splitDim = 0;

    BlockNode rl;
    rl.begin = 4;
    rl.end = 7;
    rl.parent = ri;
    rl.depth = 2;
    BlockNode rr;
    rr.begin = 7;
    rr.end = 10;
    rr.parent = ri;
    rr.depth = 2;
    const NodeIdx rli = tree.addNode(rl);
    const NodeIdx rri = tree.addNode(rr);
    tree.node(ri).left = rli;
    tree.node(ri).right = rri;
    tree.node(ri).splitDim = 1;

    tree.rebuildLeafList();
    return tree;
}

TEST(BlockTree, LeafListIsDepthFirst)
{
    const BlockTree tree = makeManualTree();
    ASSERT_EQ(tree.leaves().size(), 3u);
    EXPECT_EQ(tree.node(tree.leaves()[0]).begin, 0u);
    EXPECT_EQ(tree.node(tree.leaves()[1]).begin, 4u);
    EXPECT_EQ(tree.node(tree.leaves()[2]).begin, 7u);
}

TEST(BlockTree, SearchSpaceRule)
{
    const BlockTree tree = makeManualTree();
    // Depth-1 leaf searches itself.
    const NodeIdx depth1_leaf = tree.leaves()[0];
    EXPECT_EQ(tree.searchSpaceNode(depth1_leaf), depth1_leaf);
    // Depth-2 leaves search their parent.
    const NodeIdx depth2_leaf = tree.leaves()[1];
    EXPECT_EQ(tree.searchSpaceNode(depth2_leaf),
              tree.node(depth2_leaf).parent);
}

TEST(BlockTree, SizeStatistics)
{
    const BlockTree tree = makeManualTree();
    EXPECT_EQ(tree.maxDepth(), 2u);
    EXPECT_EQ(tree.maxLeafSize(), 4u);
    EXPECT_EQ(tree.minLeafSize(), 3u);
    EXPECT_GT(tree.leafSizeCv(), 0.0);
    EXPECT_LT(tree.leafSizeCv(), 1.0);
}

TEST(BlockTree, ValidatePassesOnManualTree)
{
    const BlockTree tree = makeManualTree();
    tree.validate(); // must not panic
}

TEST(BlockTreeDeathTest, ValidateCatchesBadTiling)
{
    BlockTree tree = makeManualTree();
    tree.node(tree.leaves()[1]).begin = 5; // hole in coverage
    EXPECT_DEATH(tree.validate(), "");
}

TEST(BlockTreeDeathTest, ValidateCatchesBadPermutation)
{
    BlockTree tree = makeManualTree();
    tree.order()[0] = tree.order()[1]; // duplicate entry
    EXPECT_DEATH(tree.validate(), "duplicated");
}

TEST(BlockTreeDeathTest, BlockOpsNeedTheTreesCoordinates)
{
    // A hand-built tree never ran the partitioners' bounds pass, so it
    // holds no DFT-ordered coordinates for the block ops to read.
    const BlockTree tree = makeManualTree();
    EXPECT_FALSE(tree.hasPoints());
    const data::PointCloud cloud(std::vector<Vec3>(10));
    EXPECT_DEATH(ops::blockFarthestPointSample(cloud, tree, 0.5),
                 "coordinates missing");
    ops::BlockSampleResult centers;
    centers.leaf_offsets.assign(tree.leaves().size() + 1, 0);
    EXPECT_DEATH(ops::blockBallQuery(cloud, tree, centers, 0.1f, 4),
                 "coordinates missing");
}

TEST(BlockTreeDeathTest, BlockOpsNeedTheTreesCloud)
{
    std::vector<Vec3> coords;
    for (int i = 0; i < 16; ++i)
        coords.emplace_back(0.1f * i, 0.0f, 0.0f);
    const data::PointCloud cloud(coords);
    const auto part = FractalPartitioner().partition(cloud, {});
    ASSERT_TRUE(part.tree.hasPoints());
    coords.pop_back();
    const data::PointCloud other(coords);
    EXPECT_DEATH(ops::blockFarthestPointSample(other, part.tree, 0.5),
                 "15 points");
}

TEST(BlockTreeDeathTest, InterpolateNeedsTheTreesCoordinates)
{
    // Block interpolation screens the tree's DFT-ordered coordinates
    // too.
    const BlockTree tree = makeManualTree();
    const data::PointCloud cloud(std::vector<Vec3>(10));
    EXPECT_DEATH(ops::blockInterpolate(cloud, tree, {}, 1, {}, 3),
                 "coordinates missing");
}

TEST(BlockTreeDeathTest, InterpolateNeedsTheTreesCloud)
{
    // Every tree position is a query whose row the op writes at its
    // point id, so a tree of a larger cloud would write past the
    // smaller cloud's rows.
    std::vector<Vec3> coords;
    for (int i = 0; i < 16; ++i)
        coords.emplace_back(0.1f * i, 0.0f, 0.0f);
    const data::PointCloud cloud(coords);
    const auto part = FractalPartitioner().partition(cloud, {});
    const std::vector<PointIdx> known = {0, 5, 10};
    const std::vector<float> features(known.size(), 1.0f);
    coords.pop_back();
    const data::PointCloud other(coords);
    EXPECT_DEATH(ops::blockInterpolate(other, part.tree, features, 1,
                                       known, 3),
                 "15 points");
}

TEST(BlockTree, SummaryMentionsCounts)
{
    const BlockTree tree = makeManualTree();
    const std::string s = tree.summary();
    EXPECT_NE(s.find("10 points"), std::string::npos);
    EXPECT_NE(s.find("3 leaves"), std::string::npos);
}

} // namespace
} // namespace fc::part
