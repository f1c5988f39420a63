/**
 * @file
 * Unit tests for neighbor searching (ball query / KNN, global and
 * block-wise; the block KNN is read through blockInterpolate).
 */

#include <cmath>
#include <gtest/gtest.h>
#include <unordered_set>

#include "common/rng.h"
#include "dataset/s3dis.h"
#include "ops/fps.h"
#include "ops/interpolate.h"
#include "ops/neighbor.h"
#include "ops/quality.h"
#include "partition/fractal.h"

namespace fc::ops {
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

TEST(BallQuery, AllNeighborsWithinRadius)
{
    const data::PointCloud cloud = randomCloud(400, 1);
    const std::vector<PointIdx> centers{0, 5, 100, 399};
    const float radius = 0.4f;
    const NeighborResult r = ballQuery(cloud, centers, radius, 16);
    ASSERT_EQ(r.num_centers, 4u);
    for (std::size_t c = 0; c < centers.size(); ++c) {
        for (std::uint32_t j = 0; j < r.counts[c]; ++j) {
            const float d = distance(cloud[centers[c]],
                                     cloud[r.neighbor(c, j)]);
            EXPECT_LE(d, radius + 1e-5f);
        }
    }
}

TEST(BallQuery, CenterFindsItself)
{
    const data::PointCloud cloud = randomCloud(100, 2);
    const NeighborResult r = ballQuery(cloud, {42}, 0.1f, 8);
    bool found_self = false;
    for (std::uint32_t j = 0; j < r.counts[0]; ++j)
        found_self |= r.neighbor(0, j) == 42u;
    EXPECT_TRUE(found_self);
}

TEST(BallQuery, PaddingRepeatsFirstNeighbor)
{
    data::PointCloud cloud;
    cloud.addPoint({0, 0, 0});
    cloud.addPoint({0.01f, 0, 0});
    cloud.addPoint({10, 10, 10}); // out of radius
    const NeighborResult r = ballQuery(cloud, {0}, 0.5f, 5);
    EXPECT_EQ(r.counts[0], 2u);
    for (std::size_t j = 2; j < 5; ++j)
        EXPECT_EQ(r.neighbor(0, j), r.neighbor(0, 0));
}

TEST(BallQuery, StopsAtK)
{
    const data::PointCloud cloud = randomCloud(1000, 3);
    const NeighborResult r = ballQuery(cloud, {0}, 10.0f, 4);
    EXPECT_EQ(r.counts[0], 4u);
    EXPECT_EQ(r.indices.size(), 4u);
}

TEST(Knn, FindsExactNearest)
{
    const data::PointCloud cloud = randomCloud(300, 4);
    std::vector<PointIdx> candidates;
    for (PointIdx i = 0; i < 300; ++i)
        candidates.push_back(i);
    const std::vector<Vec3> queries{cloud[17], {0.5f, -0.2f, 0.9f}};
    const NeighborResult r = knnSearch(cloud, candidates, queries, 3);

    for (std::size_t q = 0; q < queries.size(); ++q) {
        // Brute-force reference.
        std::vector<std::pair<float, PointIdx>> all;
        for (const PointIdx c : candidates)
            all.push_back({distance2(queries[q], cloud[c]), c});
        std::sort(all.begin(), all.end());
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(distance2(queries[q],
                                      cloud[r.neighbor(q, j)]),
                            all[j].first);
    }
}

TEST(Knn, ResultsSortedByDistance)
{
    const data::PointCloud cloud = randomCloud(200, 5);
    std::vector<PointIdx> candidates;
    for (PointIdx i = 0; i < 200; ++i)
        candidates.push_back(i);
    const std::vector<Vec3> queries{{0, 0, 0}};
    const NeighborResult r = knnSearch(cloud, candidates, queries, 8);
    for (std::size_t j = 1; j < 8; ++j) {
        EXPECT_LE(distance2(queries[0], cloud[r.neighbor(0, j - 1)]),
                  distance2(queries[0], cloud[r.neighbor(0, j)]) +
                      1e-6f);
    }
}

TEST(Knn, FewerCandidatesThanK)
{
    const data::PointCloud cloud = randomCloud(10, 6);
    const std::vector<PointIdx> candidates{1, 2};
    const std::vector<Vec3> queries{{0, 0, 0}};
    const NeighborResult r = knnSearch(cloud, candidates, queries, 5);
    EXPECT_EQ(r.counts[0], 2u);
    // Padded with the nearest.
    EXPECT_EQ(r.neighbor(0, 4), r.neighbor(0, 0));
}

struct BlockSetup
{
    data::PointCloud scene;
    part::PartitionResult part;
    BlockSampleResult sampled;
};

BlockSetup
makeBlockSetup(std::size_t n, std::uint64_t seed, std::uint32_t th,
               double rate)
{
    BlockSetup s;
    s.scene = data::makeS3disScene(n, seed);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = th;
    s.part = p.partition(s.scene, config);
    s.sampled = blockFarthestPointSample(s.scene, s.part.tree, rate);
    return s;
}

TEST(BlockBallQuery, NeighborsWithinRadiusAndSpace)
{
    const BlockSetup s = makeBlockSetup(4096, 7, 256, 0.25);
    const float radius = 0.5f;
    const NeighborResult r =
        blockBallQuery(s.scene, s.part.tree, s.sampled, radius, 16);
    ASSERT_EQ(r.num_centers, s.sampled.indices.size());
    for (std::size_t c = 0; c < r.num_centers; ++c) {
        for (std::uint32_t j = 0; j < r.counts[c]; ++j) {
            EXPECT_LE(distance(s.scene[s.sampled.indices[c]],
                               s.scene[r.neighbor(c, j)]),
                      radius + 1e-5f);
        }
    }
}

TEST(BlockBallQuery, HighRecallVsGlobal)
{
    const BlockSetup s = makeBlockSetup(4096, 8, 256, 0.25);
    const float radius = 0.3f;
    const NeighborResult blocked =
        blockBallQuery(s.scene, s.part.tree, s.sampled, radius, 16);
    const NeighborResult global =
        ballQuery(s.scene, s.sampled.indices, radius, 16);
    // Global BQ truncates at k in scan order, so sets differ; but
    // counts should broadly agree and recall should be high (the
    // paper reports <0.6% accuracy impact after retraining).
    const double recall = neighborRecall(global, blocked);
    EXPECT_GT(recall, 0.55) << "block-wise grouping lost too many "
                               "of the global neighbors";
}

TEST(BlockBallQuery, SearchSpaceIsParentRange)
{
    const BlockSetup s = makeBlockSetup(2048, 9, 128, 0.2);
    const NeighborResult r =
        blockBallQuery(s.scene, s.part.tree, s.sampled, 10.0f, 4);
    // With a huge radius every neighbor must still come from the
    // center's search space (parent block).
    std::vector<std::uint32_t> inverse(s.part.tree.order().size());
    for (std::uint32_t pos = 0; pos < inverse.size(); ++pos)
        inverse[s.part.tree.order()[pos]] = pos;

    const auto &leaves = s.part.tree.leaves();
    for (std::size_t li = 0; li < leaves.size(); ++li) {
        const auto space = s.part.tree.node(
            s.part.tree.searchSpaceNode(leaves[li]));
        for (std::uint32_t c = s.sampled.leaf_offsets[li];
             c < s.sampled.leaf_offsets[li + 1]; ++c) {
            for (std::uint32_t j = 0; j < r.counts[c]; ++j) {
                const std::uint32_t pos =
                    inverse[r.neighbor(c, j)];
                EXPECT_GE(pos, space.begin);
                EXPECT_LT(pos, space.end);
            }
        }
    }
}

/**
 * The block KNN rows of blockInterpolate, read at k = 1 with each
 * known point's feature set to its id: row i holds (up to the blend's
 * rounding) the id of point i's nearest known point in its search
 * space.
 */
std::vector<float>
nearestKnownIds(const BlockSetup &s)
{
    const std::vector<float> ids(s.sampled.indices.begin(),
                                 s.sampled.indices.end());
    return blockInterpolate(s.scene, s.part.tree, ids, 1,
                            s.sampled.indices, 1)
        .values;
}

TEST(BlockKnn, RowsAlignedToOriginalOrder)
{
    const BlockSetup s = makeBlockSetup(1024, 10, 128, 0.25);
    const std::vector<float> nearest = nearestKnownIds(s);
    ASSERT_EQ(nearest.size(), s.scene.size());
    // A sampled point's nearest sample is itself.
    for (const PointIdx idx : s.sampled.indices)
        EXPECT_FLOAT_EQ(nearest[idx], static_cast<float>(idx));
}

TEST(BlockKnn, NeighborsAreSamples)
{
    const BlockSetup s = makeBlockSetup(1024, 11, 128, 0.25);
    std::unordered_set<PointIdx> samples(s.sampled.indices.begin(),
                                         s.sampled.indices.end());
    for (const float id : nearestKnownIds(s)) {
        const auto nb = static_cast<PointIdx>(std::lround(id));
        EXPECT_FLOAT_EQ(id, static_cast<float>(nb));
        EXPECT_TRUE(samples.count(nb)) << nb;
    }
}

TEST(BlockOps, WorkFarBelowGlobal)
{
    const BlockSetup s = makeBlockSetup(8192, 12, 256, 0.25);
    const NeighborResult blocked =
        blockBallQuery(s.scene, s.part.tree, s.sampled, 0.3f, 16);
    const NeighborResult global =
        ballQuery(s.scene, s.sampled.indices, 0.3f, 16);
    EXPECT_LT(blocked.stats.distance_computations * 4,
              global.stats.distance_computations);
}

} // namespace
} // namespace fc::ops
