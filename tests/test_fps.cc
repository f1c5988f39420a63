/**
 * @file
 * Unit tests for farthest point sampling (global and block-wise).
 */

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "dataset/s3dis.h"
#include "ops/fps.h"
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

TEST(Fps, SamplesAreDistinct)
{
    const data::PointCloud cloud = randomCloud(500, 1);
    const SampleResult r = farthestPointSample(cloud, 100);
    ASSERT_EQ(r.indices.size(), 100u);
    std::unordered_set<PointIdx> set(r.indices.begin(),
                                     r.indices.end());
    EXPECT_EQ(set.size(), 100u);
}

TEST(Fps, SecondSampleIsFarthestFromFirst)
{
    const data::PointCloud cloud = randomCloud(200, 3);
    const SampleResult r = farthestPointSample(cloud, 2);
    const Vec3 &p0 = cloud[r.indices[0]];
    float best = -1.0f;
    PointIdx best_idx = 0;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const float d = distance2(p0, cloud[i]);
        if (d > best) {
            best = d;
            best_idx = static_cast<PointIdx>(i);
        }
    }
    EXPECT_EQ(r.indices[1], best_idx);
}

TEST(Fps, GreedyMaximinProperty)
{
    // Each new sample is at least as far from the sampled set as any
    // later-chosen point was at its selection time; equivalently, the
    // selection distances are non-increasing.
    const data::PointCloud cloud = randomCloud(300, 4);
    const SampleResult r = farthestPointSample(cloud, 50);
    std::vector<float> sel_dist;
    for (std::size_t s = 1; s < r.indices.size(); ++s) {
        float d = 1e30f;
        for (std::size_t t = 0; t < s; ++t)
            d = std::min(d, distance2(cloud[r.indices[s]],
                                      cloud[r.indices[t]]));
        sel_dist.push_back(d);
    }
    for (std::size_t i = 1; i < sel_dist.size(); ++i)
        EXPECT_LE(sel_dist[i], sel_dist[i - 1] + 1e-5f);
}

TEST(Fps, CoverageImprovesWithMoreSamples)
{
    const data::PointCloud cloud = randomCloud(1000, 5);
    const SampleResult a = farthestPointSample(cloud, 10);
    const SampleResult b = farthestPointSample(cloud, 100);
    EXPECT_LT(coverageRadius(cloud, b.indices),
              coverageRadius(cloud, a.indices));
}

TEST(Fps, ClampsToCloudSize)
{
    const data::PointCloud cloud = randomCloud(10, 6);
    const SampleResult r = farthestPointSample(cloud, 50);
    EXPECT_EQ(r.indices.size(), 10u);
}

TEST(Fps, WindowCheckSkipsSampledPoints)
{
    const data::PointCloud cloud = randomCloud(400, 7);
    FpsOptions with;
    with.window_check = true;
    FpsOptions without;
    without.window_check = false;
    const SampleResult a = farthestPointSample(cloud, 100, with);
    const SampleResult b = farthestPointSample(cloud, 100, without);
    // Identical result...
    EXPECT_EQ(a.indices, b.indices);
    // ...but the window check removes re-visits of sampled points.
    EXPECT_GT(a.stats.skipped, 0u);
    EXPECT_LT(a.stats.points_visited, b.stats.points_visited);
    EXPECT_EQ(a.stats.points_visited + a.stats.skipped,
              b.stats.points_visited);
}

/**
 * Global FPS as the serial loop with a sampled flag per point, run
 * over the cloud's own coordinates: sampled points are skipped, every
 * other point lowers its distance and competes in a strictly-greater
 * argmax. Each sweep counts its own work, as the RSPU does: with the
 * window check a sampled point is skipped, without it it is still
 * visited; only unsampled points cost a distance evaluation.
 */
SampleResult
referenceGlobalFps(const data::PointCloud &cloud, std::size_t num_samples,
                   bool window_check)
{
    SampleResult r;
    const std::size_t n = cloud.size();
    const std::size_t quota = std::min(num_samples, n);
    std::vector<float> min_dist(n, std::numeric_limits<float>::max());
    std::vector<std::uint8_t> sampled(n, 0);
    PointIdx current = 0;
    for (;;) {
        sampled[current] = 1;
        r.indices.push_back(current);
        ++r.stats.iterations;
        if (r.indices.size() == quota)
            return r;
        const Vec3 q = cloud[current];
        float best = -1.0f;
        for (std::size_t i = 0; i < n; ++i) {
            if (sampled[i]) {
                ++(window_check ? r.stats.skipped : r.stats.points_visited);
                continue;
            }
            ++r.stats.points_visited;
            ++r.stats.distance_computations;
            const float dx = q.x - cloud[i].x;
            const float dy = q.y - cloud[i].y;
            const float dz = q.z - cloud[i].z;
            const float d = dx * dx + dy * dy + dz * dz;
            if (d < min_dist[i])
                min_dist[i] = d;
            if (min_dist[i] > best) {
                best = min_dist[i];
                current = static_cast<PointIdx>(i);
            }
        }
    }
}

TEST(Fps, GlobalMatchesPerSweepReference)
{
    // NaN, +-inf and duplicate coordinates: NaN distances never lower
    // a point's distance, and duplicates of a sampled point tie at 0.
    std::vector<Vec3> special = data::makeS3disScene(2048, 24).coords();
    const float inf = std::numeric_limits<float>::infinity();
    for (std::size_t i = 1; i < special.size(); ++i) {
        if (i % 97 == 5)
            special[i].x = std::numeric_limits<float>::quiet_NaN();
        if (i % 89 == 7)
            special[i].z = i % 2 == 0 ? inf : -inf;
        if (i % 31 == 3)
            special[i] = special[i % 50];
    }
    const struct
    {
        const char *name;
        data::PointCloud cloud;
        std::size_t samples;
    } cases[] = {
        {"scene-2048", data::makeS3disScene(2048, 23), 300},
        {"scene-70000", data::makeS3disScene(70000, 23), 64},
        {"special-2048", data::PointCloud(special), 300},
    };
    for (const auto &c : cases) {
        for (const bool window_check : {true, false}) {
            SCOPED_TRACE(std::string(c.name) +
                         (window_check ? " window-check" : " no-check"));
            FpsOptions options;
            options.window_check = window_check;
            const SampleResult got =
                farthestPointSample(c.cloud, c.samples, options);
            const SampleResult want =
                referenceGlobalFps(c.cloud, c.samples, window_check);
            EXPECT_EQ(got.indices, want.indices);
            EXPECT_EQ(got.stats.iterations, want.stats.iterations);
            EXPECT_EQ(got.stats.distance_computations,
                      want.stats.distance_computations);
            EXPECT_EQ(got.stats.points_visited,
                      want.stats.points_visited);
            EXPECT_EQ(got.stats.skipped, want.stats.skipped);
        }
    }
}

TEST(BlockFps, FixedRatePerLeaf)
{
    const data::PointCloud scene = data::makeS3disScene(4096, 8);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 256;
    const part::PartitionResult part = p.partition(scene, config);

    const BlockSampleResult r =
        blockFarthestPointSample(scene, part.tree, 0.25);
    ASSERT_EQ(r.leaf_offsets.size(), part.tree.leaves().size() + 1);
    for (std::size_t li = 0; li < part.tree.leaves().size(); ++li) {
        const auto &leaf = part.tree.node(part.tree.leaves()[li]);
        const std::uint32_t got =
            r.leaf_offsets[li + 1] - r.leaf_offsets[li];
        if (leaf.size() == 0) {
            EXPECT_EQ(got, 0u);
        } else {
            const std::uint32_t want = std::clamp<std::uint32_t>(
                static_cast<std::uint32_t>(
                    std::llround(0.25 * leaf.size())),
                1u, leaf.size());
            EXPECT_EQ(got, want) << "leaf " << li;
        }
    }
}

TEST(BlockFps, PositionsMatchIndices)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 9);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part = p.partition(scene, config);
    const BlockSampleResult r =
        blockFarthestPointSample(scene, part.tree, 0.1);
    ASSERT_EQ(r.positions.size(), r.indices.size());
    for (std::size_t i = 0; i < r.indices.size(); ++i)
        EXPECT_EQ(part.tree.order()[r.positions[i]], r.indices[i]);
}

TEST(BlockFps, SamplesStayInTheirLeaf)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 10);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part = p.partition(scene, config);
    const BlockSampleResult r =
        blockFarthestPointSample(scene, part.tree, 0.25);
    for (std::size_t li = 0; li < part.tree.leaves().size(); ++li) {
        const auto &leaf = part.tree.node(part.tree.leaves()[li]);
        for (std::uint32_t s = r.leaf_offsets[li];
             s < r.leaf_offsets[li + 1]; ++s) {
            EXPECT_GE(r.positions[s], leaf.begin);
            EXPECT_LT(r.positions[s], leaf.end);
        }
    }
}

TEST(BlockFps, CoverageCloseToGlobalFps)
{
    // The accuracy argument of the paper: block-wise FPS tracks
    // global FPS coverage because Fractal blocks align with geometry.
    const data::PointCloud scene = data::makeS3disScene(4096, 11);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 256;
    const part::PartitionResult part = p.partition(scene, config);

    const BlockSampleResult blockwise =
        blockFarthestPointSample(scene, part.tree, 0.25);
    const SampleResult global = farthestPointSample(
        scene, blockwise.indices.size());

    // Mean coverage drives feature quality; the max (coverage radius)
    // is dominated by the outliers global FPS picks first, so it is
    // only loosely bounded.
    const float mean_block = meanCoverage(scene, blockwise.indices);
    const float mean_global = meanCoverage(scene, global.indices);
    EXPECT_LT(mean_block, mean_global * 1.5f)
        << "block-wise FPS coverage degraded too much";
    EXPECT_LT(coverageRadius(scene, blockwise.indices),
              coverageRadius(scene, global.indices) * 6.0f);
}

TEST(BlockFps, MuchLessWorkThanGlobal)
{
    const data::PointCloud scene = data::makeS3disScene(4096, 12);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 64;
    const part::PartitionResult part = p.partition(scene, config);
    const BlockSampleResult blockwise =
        blockFarthestPointSample(scene, part.tree, 0.25);
    const SampleResult global =
        farthestPointSample(scene, blockwise.indices.size());
    EXPECT_LT(blockwise.stats.distance_computations * 10,
              global.stats.distance_computations);
}

TEST(Fps, EmptyInputsAreSafe)
{
    data::PointCloud empty;
    const SampleResult r = farthestPointSample(empty, 10);
    EXPECT_TRUE(r.indices.empty());
    const data::PointCloud cloud = randomCloud(10, 13);
    const SampleResult zero = farthestPointSample(cloud, 0);
    EXPECT_TRUE(zero.indices.empty());
}

TEST(BlockFps, FixedCountModeEqualizesQuotas)
{
    // PNNPU-style fixed count per block: every non-empty leaf yields
    // the same quota (clamped by its size) regardless of density.
    const data::PointCloud scene = data::makeS3disScene(4096, 14);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 256;
    const part::PartitionResult part = p.partition(scene, config);

    FpsOptions opt;
    opt.fixed_count_per_block = true;
    const BlockSampleResult r =
        blockFarthestPointSample(scene, part.tree, 0.25, opt);

    std::size_t nonempty = 0;
    for (const part::NodeIdx leaf : part.tree.leaves())
        nonempty += part.tree.node(leaf).size() > 0;
    const std::uint32_t expect = static_cast<std::uint32_t>(
        std::llround(0.25 * 4096.0 / static_cast<double>(nonempty)));

    for (std::size_t li = 0; li < part.tree.leaves().size(); ++li) {
        const auto &leaf = part.tree.node(part.tree.leaves()[li]);
        const std::uint32_t got =
            r.leaf_offsets[li + 1] - r.leaf_offsets[li];
        if (leaf.size() == 0) {
            EXPECT_EQ(got, 0u);
        } else {
            EXPECT_EQ(got, std::min(leaf.size(),
                                    std::max(1u, expect)))
                << "leaf " << li << " size " << leaf.size();
        }
    }
}

TEST(BlockFps, FixedCountDistortsDensityOnImbalancedBlocks)
{
    // On a space-uniform partition of a clustered scene, fixed-count
    // sampling under-samples dense blocks relative to fixed-rate —
    // the density distortion behind PNNPU's accuracy loss.
    const data::PointCloud scene = data::makeS3disScene(8192, 15);
    const auto uniform = part::makePartitioner(part::Method::Uniform);
    part::PartitionConfig config;
    config.threshold = 256;
    const part::PartitionResult part =
        uniform->partition(scene, config);

    FpsOptions fixed;
    fixed.fixed_count_per_block = true;
    const BlockSampleResult count_based =
        blockFarthestPointSample(scene, part.tree, 0.25, fixed);
    const BlockSampleResult rate_based =
        blockFarthestPointSample(scene, part.tree, 0.25);

    // Find the densest leaf and compare its sample share.
    std::size_t densest = 0;
    for (std::size_t li = 0; li < part.tree.leaves().size(); ++li) {
        if (part.tree.node(part.tree.leaves()[li]).size() >
            part.tree.node(part.tree.leaves()[densest]).size())
            densest = li;
    }
    const std::uint32_t fixed_samples =
        count_based.leaf_offsets[densest + 1] -
        count_based.leaf_offsets[densest];
    const std::uint32_t rate_samples =
        rate_based.leaf_offsets[densest + 1] -
        rate_based.leaf_offsets[densest];
    EXPECT_LT(2 * fixed_samples, rate_samples)
        << "fixed-count should starve the densest block";
}

TEST(BlockFps, WorksOnEveryPartitionDepthLimit)
{
    // max_depth safety valve: partitioning stops early but sampling
    // still covers every point range.
    const data::PointCloud scene = data::makeS3disScene(2048, 16);
    part::FractalPartitioner p;
    part::PartitionConfig config;
    config.threshold = 2;
    config.max_depth = 4; // far too shallow for th=2
    const part::PartitionResult part = p.partition(scene, config);
    part.tree.validate();
    EXPECT_LE(part.tree.maxDepth(), 4u);
    const BlockSampleResult r =
        blockFarthestPointSample(scene, part.tree, 0.1);
    EXPECT_GT(r.indices.size(), 0u);
    EXPECT_EQ(r.leaf_offsets.size(), part.tree.leaves().size() + 1);
}

} // namespace
} // namespace fc::ops
