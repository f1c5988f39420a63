/**
 * @file
 * Unit tests for feature interpolation (global and block-wise).
 */

#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/s3dis.h"
#include "ops/fps.h"
#include "ops/interpolate.h"
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

TEST(Interpolate, ExactAtKnownPoints)
{
    const data::PointCloud cloud = randomCloud(200, 1);
    // Known points: every 4th point, feature = its own index.
    std::vector<PointIdx> known;
    std::vector<float> feats;
    for (PointIdx i = 0; i < 200; i += 4) {
        known.push_back(i);
        feats.push_back(static_cast<float>(i));
    }
    const InterpolateResult r =
        globalInterpolate(cloud, feats, 1, known);
    // At a known point the inverse-distance weight of itself
    // dominates (d ~ 0), so the value is (almost) reproduced.
    for (std::size_t i = 0; i < known.size(); ++i) {
        EXPECT_NEAR(r.values[known[i]], feats[i], 1e-2f)
            << "known point " << known[i];
    }
}

TEST(Interpolate, ValuesWithinNeighborRange)
{
    // IDW is a convex combination: values stay inside the min/max of
    // the contributing features.
    const data::PointCloud cloud = randomCloud(300, 2);
    std::vector<PointIdx> known;
    std::vector<float> feats;
    Pcg32 rng(3);
    for (PointIdx i = 0; i < 300; i += 3) {
        known.push_back(i);
        feats.push_back(rng.uniform(10.0f, 20.0f));
    }
    const InterpolateResult r =
        globalInterpolate(cloud, feats, 1, known);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_GE(r.values[i], 10.0f - 1e-4f);
        EXPECT_LE(r.values[i], 20.0f + 1e-4f);
    }
}

TEST(Interpolate, ConstantFieldIsPreserved)
{
    const data::PointCloud cloud = randomCloud(150, 4);
    std::vector<PointIdx> known{10, 50, 90, 130};
    std::vector<float> feats(known.size() * 2, 7.5f);
    const InterpolateResult r =
        globalInterpolate(cloud, feats, 2, known);
    for (const float v : r.values)
        EXPECT_NEAR(v, 7.5f, 1e-4f);
}

TEST(BlockInterpolate, CloseToGlobal)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 5);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part = p.partition(scene, config);
    const BlockSampleResult sampled =
        blockFarthestPointSample(scene, part.tree, 0.25);

    // Smooth feature field: f(p) = p.x + 2 p.y - p.z.
    std::vector<float> known_feats;
    for (const PointIdx idx : sampled.indices) {
        const Vec3 &q = scene[idx];
        known_feats.push_back(q.x + 2.0f * q.y - q.z);
    }

    const InterpolateResult blocked = blockInterpolate(
        scene, part.tree, known_feats, 1, sampled.indices);
    const InterpolateResult global = globalInterpolate(
        scene, known_feats, 1, sampled.indices);

    const double err =
        featureRelativeError(global.values, blocked.values);
    EXPECT_LT(err, 0.08) << "block-wise interpolation diverged from "
                            "global (paper: <0.2% accuracy impact)";
}

TEST(BlockInterpolate, MuchCheaperThanGlobal)
{
    const data::PointCloud scene = data::makeS3disScene(4096, 6);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part = p.partition(scene, config);
    const BlockSampleResult sampled =
        blockFarthestPointSample(scene, part.tree, 0.25);
    std::vector<float> known_feats(sampled.indices.size(), 1.0f);

    const InterpolateResult blocked = blockInterpolate(
        scene, part.tree, known_feats, 1, sampled.indices);
    const InterpolateResult global = globalInterpolate(
        scene, known_feats, 1, sampled.indices);
    EXPECT_LT(blocked.stats.distance_computations * 4,
              global.stats.distance_computations);
}

TEST(Interpolate, WeightsAreInverseDistance)
{
    // Two known points, query halfway-ish: check the closed form.
    data::PointCloud cloud;
    cloud.addPoint({0, 0, 0});   // query
    cloud.addPoint({1, 0, 0});   // known A
    cloud.addPoint({0, 2, 0});   // known B
    const std::vector<PointIdx> known{1, 2};
    const std::vector<float> feats{10.0f, 20.0f};
    const InterpolateResult r =
        globalInterpolate(cloud, feats, 1, known, 2);
    // w_A = 1/1, w_B = 1/4 -> value = (10 + 5) / 1.25 = 12.
    EXPECT_NEAR(r.values[0], 12.0f, 1e-3f);
}

/** Ten points on a line, for the id checks below. */
data::PointCloud
lineCloud()
{
    data::PointCloud cloud;
    for (int i = 0; i < 10; ++i)
        cloud.addPoint({0.1f * static_cast<float>(i), 0, 0});
    return cloud;
}

TEST(InterpolateDeathTest, FeaturesNeedKnownIdsInRange)
{
    const data::PointCloud cloud = lineCloud();
    NeighborResult neighbors;
    neighbors.num_centers = cloud.size();
    neighbors.k = 1;
    neighbors.indices.assign(cloud.size(), 0);
    neighbors.counts.assign(cloud.size(), 1);
    const std::vector<PointIdx> known{0, 12};
    const std::vector<float> feats{1.0f, 2.0f};
    EXPECT_DEATH(interpolateFeatures(cloud, feats, 1, known, neighbors),
                 "known point id 12 out of range");
}

TEST(InterpolateDeathTest, GlobalNeedsKnownIdsInRange)
{
    // The KNN reads the coordinates of every known id before the
    // blend does.
    const std::vector<PointIdx> known{0, 12};
    const std::vector<float> feats{1.0f, 2.0f};
    EXPECT_DEATH(globalInterpolate(lineCloud(), feats, 1, known),
                 "candidate id 12 out of range");
}

TEST(InterpolateDeathTest, BlockRejectsOutOfRangeAndRepeatedIds)
{
    const data::PointCloud cloud = lineCloud();
    const part::PartitionResult part =
        part::FractalPartitioner().partition(cloud, {});
    const std::vector<float> feats{1.0f, 2.0f};
    EXPECT_DEATH(blockInterpolate(cloud, part.tree, feats, 1, {0, 10}),
                 "known point id 10 out of range");
    EXPECT_DEATH(blockInterpolate(cloud, part.tree, feats, 1, {3, 3}),
                 "known point id 3 repeated");
}

} // namespace
} // namespace fc::ops
