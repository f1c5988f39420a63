/**
 * @file
 * Unit tests for gathering (global and block-wise).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/s3dis.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/neighbor.h"
#include "partition/fractal.h"

namespace fc::ops {
namespace {

data::PointCloud
featuredCloud(std::size_t n, std::uint64_t seed, std::size_t dim)
{
    Pcg32 rng(seed);
    data::PointCloud cloud;
    for (std::size_t i = 0; i < n; ++i)
        cloud.addPoint({rng.uniform(-1, 1), rng.uniform(-1, 1),
                        rng.uniform(-1, 1)});
    cloud.allocateFeatures(dim);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t c = 0; c < dim; ++c)
            cloud.featureRow(i)[c] =
                static_cast<float>(i) + 0.1f * static_cast<float>(c);
    return cloud;
}

TEST(Gather, RelativeCoordsAndFeatures)
{
    const data::PointCloud cloud = featuredCloud(50, 1, 4);
    const std::vector<PointIdx> centers{3, 7};
    const NeighborResult nbr = ballQuery(cloud, centers, 1.0f, 4);
    const GatherResult g = gatherNeighborhoods(cloud, centers, nbr);
    ASSERT_EQ(g.channels, 7u); // 3 rel coords + 4 features
    for (std::size_t c = 0; c < centers.size(); ++c) {
        for (std::size_t j = 0; j < nbr.k; ++j) {
            const PointIdx nb = nbr.neighbor(c, j);
            if (nb == kInvalidPoint)
                continue;
            EXPECT_FLOAT_EQ(g.at(c, j, 0),
                            cloud[nb].x - cloud[centers[c]].x);
            EXPECT_FLOAT_EQ(g.at(c, j, 3), cloud.featureRow(nb)[0]);
            EXPECT_FLOAT_EQ(g.at(c, j, 6), cloud.featureRow(nb)[3]);
        }
    }
}

TEST(Gather, InvalidNeighborYieldsZeros)
{
    data::PointCloud cloud;
    cloud.addPoint({0, 0, 0});
    cloud.addPoint({100, 100, 100});
    cloud.allocateFeatures(2);
    // Center 1 has no neighbor within the radius except itself; make
    // a neighbor table manually with an invalid entry.
    NeighborResult nbr;
    nbr.num_centers = 1;
    nbr.k = 2;
    nbr.indices = {kInvalidPoint, kInvalidPoint};
    nbr.counts = {0};
    const GatherResult g = gatherNeighborhoods(cloud, {0}, nbr);
    for (std::size_t c = 0; c < g.channels; ++c)
        EXPECT_EQ(g.at(0, 0, c), 0.0f);
}

TEST(Gather, BlockMatchesGlobalValues)
{
    const data::PointCloud scene = [] {
        data::PointCloud s = data::makeS3disScene(2048, 2);
        s.allocateFeatures(8);
        Pcg32 rng(3);
        for (float &v : s.features())
            v = rng.uniform(-1, 1);
        return s;
    }();

    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part = p.partition(scene, config);
    const BlockSampleResult sampled =
        blockFarthestPointSample(scene, part.tree, 0.25);
    const NeighborResult nbr =
        blockBallQuery(scene, part.tree, sampled, 0.4f, 8);

    const GatherResult global =
        gatherNeighborhoods(scene, sampled.indices, nbr);
    const GatherResult blocked = blockGatherNeighborhoods(
        scene, part.tree, sampled.indices, sampled.leaf_offsets, nbr);

    // Identical values (the paper: gathering does not change
    // results), different memory accounting.
    ASSERT_EQ(global.values.size(), blocked.values.size());
    for (std::size_t i = 0; i < global.values.size(); ++i)
        EXPECT_EQ(global.values[i], blocked.values[i]);
}

TEST(Gather, ByteAccountingScalesWithK)
{
    const data::PointCloud cloud = featuredCloud(256, 4, 16);
    std::vector<PointIdx> centers;
    for (PointIdx i = 0; i < 32; ++i)
        centers.push_back(i);
    const NeighborResult nbr4 = ballQuery(cloud, centers, 2.0f, 4);
    const NeighborResult nbr16 = ballQuery(cloud, centers, 2.0f, 16);
    const GatherResult g4 = gatherNeighborhoods(cloud, centers, nbr4);
    const GatherResult g16 = gatherNeighborhoods(cloud, centers, nbr16);
    EXPECT_EQ(g16.stats.bytes_gathered, 4 * g4.stats.bytes_gathered);
}

TEST(GatherDeathTest, GlobalGatherNeedsIdsInRange)
{
    // Ids equal to the cloud size name the slot one past the
    // coordinates, as a center and as a neighbor; kInvalidPoint is
    // padding and reads as a zero row.
    const data::PointCloud cloud = featuredCloud(8, 5, 2);
    NeighborResult nbr;
    nbr.num_centers = 1;
    nbr.k = 2;
    nbr.indices = {3, kInvalidPoint};
    nbr.counts = {1};
    EXPECT_DEATH(gatherNeighborhoods(cloud, {8}, nbr),
                 "center id 8 out of range");
    nbr.indices = {kInvalidPoint, 8};
    EXPECT_DEATH(gatherNeighborhoods(cloud, {1}, nbr),
                 "neighbor id 8 out of range");
}

TEST(GatherDeathTest, MaxPoolGathersNeedIdsInRange)
{
    // The delayed order's pooled gathers: an id equal to the size names
    // the slot one past the coordinates (maxPoolRelativeCoords, as a
    // center and as a counted neighbor) or one past the feature rows
    // (gatherMaxPool, whose kInvalidPoint slots read as zero rows).
    const data::PointCloud cloud = featuredCloud(8, 5, 2);
    NeighborResult nbr;
    nbr.num_centers = 1;
    nbr.k = 2;
    nbr.indices = {3, 3};
    nbr.counts = {1};
    std::vector<float> relpool;
    EXPECT_DEATH(maxPoolRelativeCoords(cloud, {8}, nbr, nullptr, relpool),
                 "center id 8 out of range");
    nbr.indices = {8, 8};
    EXPECT_DEATH(maxPoolRelativeCoords(cloud, {1}, nbr, nullptr, relpool),
                 "neighbor id 8 out of range");

    const std::vector<float> features(8 * 4, 1.0f); // 8 rows x 4
    std::vector<float> pooled(4);
    nbr.indices = {kInvalidPoint, 8};
    EXPECT_DEATH(gatherMaxPool(features, 4, nbr, nullptr, pooled),
                 "neighbor id 8 out of range");
}

} // namespace
} // namespace fc::ops
