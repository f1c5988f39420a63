/**
 * @file
 * The block ops over the tree's DFT-ordered coordinates, pinned to the
 * per-candidate loops they replaced.
 *
 * blockFarthestPointSample and blockBallQuery read each leaf's search
 * space from BlockTree::points() with contiguous addressing, and
 * blockKnnToSamples (and so blockInterpolate) screens the samples of
 * each search space there at their DFT positions. The references here
 * read every candidate from the cloud by point id, one at a time,
 * exactly as the ops did before the tree carried coordinates. Rows,
 * counts, indices, positions, interpolated values and every OpStats
 * field must match for every partitioner, on an indoor scene and a
 * LiDAR frame, at both SIMD levels, with no pool and with 2- and
 * 8-thread pools (the pooled cases run in CI's TSan filter).
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "dataset/synthetic.h"
#include "ops/fps.h"
#include "ops/interpolate.h"
#include "ops/neighbor.h"
#include "ops/topk.h"
#include "partition/partitioner.h"

namespace fc {
namespace {

namespace simd = core::simd;

/** One leaf's FPS, reading candidates through tree.order(). */
void
referenceLeafFps(const data::PointCloud &cloud,
                 const part::BlockTree &tree, const part::BlockNode &leaf,
                 std::size_t quota, const ops::FpsOptions &options,
                 ops::BlockSampleResult &out)
{
    const std::uint32_t n = leaf.size();
    std::vector<float> min_dist(n, std::numeric_limits<float>::max());
    std::vector<std::uint8_t> sampled(n, 0);
    std::uint32_t current = std::min(options.start_index, n - 1);
    const auto take = [&] {
        sampled[current] = 1;
        out.positions.push_back(leaf.begin + current);
        out.indices.push_back(tree.order()[leaf.begin + current]);
    };
    take();
    for (std::size_t s = 1; s < quota; ++s) {
        ++out.stats.iterations;
        const Vec3 &cur = cloud[tree.order()[leaf.begin + current]];
        float best = -1.0f;
        std::uint32_t best_pos = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (sampled[i]) {
                if (options.window_check)
                    ++out.stats.skipped;
                else
                    ++out.stats.points_visited;
                continue;
            }
            ++out.stats.points_visited;
            ++out.stats.distance_computations;
            const float d =
                distance2(cur, cloud[tree.order()[leaf.begin + i]]);
            if (d < min_dist[i])
                min_dist[i] = d;
            if (min_dist[i] > best) {
                best = min_dist[i];
                best_pos = i;
            }
        }
        current = best_pos;
        take();
    }
    ++out.stats.iterations;
}

/** Block FPS with the quota rule of ops/fps.cc and the loop above. */
ops::BlockSampleResult
referenceBlockFps(const data::PointCloud &cloud,
                  const part::BlockTree &tree, double rate,
                  const ops::FpsOptions &options)
{
    std::size_t nonempty = 0;
    for (const part::NodeIdx leaf : tree.leaves())
        nonempty += tree.node(leaf).size() > 0;
    const double per_block_count =
        nonempty == 0 ? 0.0
                      : rate * static_cast<double>(tree.numPoints()) /
                            static_cast<double>(nonempty);
    ops::BlockSampleResult out;
    out.leaf_offsets.push_back(0);
    for (const part::NodeIdx leaf_idx : tree.leaves()) {
        const part::BlockNode &leaf = tree.node(leaf_idx);
        if (leaf.size() > 0) {
            const std::size_t quota = std::clamp<std::size_t>(
                static_cast<std::size_t>(std::llround(
                    options.fixed_count_per_block
                        ? per_block_count
                        : rate * static_cast<double>(leaf.size()))),
                1, leaf.size());
            referenceLeafFps(cloud, tree, leaf, quota, options, out);
        }
        out.leaf_offsets.push_back(
            static_cast<std::uint32_t>(out.indices.size()));
    }
    return out;
}

/** Block ball query reading candidates through tree.order(). */
ops::NeighborResult
referenceBlockBallQuery(const data::PointCloud &cloud,
                        const part::BlockTree &tree,
                        const ops::BlockSampleResult &centers,
                        float radius, std::size_t k)
{
    const float r2 = radius * radius;
    ops::NeighborResult out;
    out.num_centers = centers.indices.size();
    out.k = k;
    out.indices.resize(out.num_centers * k);
    out.counts.resize(out.num_centers);
    const auto &leaves = tree.leaves();
    for (std::size_t li = 0; li < leaves.size(); ++li) {
        const part::BlockNode &space =
            tree.node(tree.searchSpaceNode(leaves[li]));
        for (std::uint32_t ci = centers.leaf_offsets[li];
             ci < centers.leaf_offsets[li + 1]; ++ci) {
            const Vec3 &center = cloud[centers.indices[ci]];
            PointIdx *row = out.indices.data() + std::size_t{ci} * k;
            std::uint32_t found = 0;
            for (std::uint32_t pos = space.begin;
                 pos < space.end && found < k; ++pos) {
                ++out.stats.points_visited;
                ++out.stats.distance_computations;
                const PointIdx idx = tree.order()[pos];
                if (distance2(center, cloud[idx]) <= r2)
                    row[found++] = idx;
            }
            const PointIdx pad = found > 0 ? row[0] : kInvalidPoint;
            for (std::size_t j = found; j < k; ++j)
                row[j] = pad;
            out.counts[ci] = found;
            ++out.stats.iterations;
        }
    }
    return out;
}

/**
 * blockKnnToSamples screening candidates from the cloud by point id:
 * each leaf's candidates are the samples whose DFT position falls in
 * its search space (all samples when none does), offered to the top-k
 * in ascending position order.
 */
ops::NeighborResult
referenceBlockKnn(const data::PointCloud &cloud,
                  const part::BlockTree &tree,
                  const ops::BlockSampleResult &sampled, std::size_t k)
{
    std::vector<std::uint32_t> sorted_pos = sampled.positions;
    std::sort(sorted_pos.begin(), sorted_pos.end());
    std::vector<PointIdx> sorted_idx;
    for (const std::uint32_t pos : sorted_pos)
        sorted_idx.push_back(tree.order()[pos]);

    ops::NeighborResult out;
    out.num_centers = cloud.size();
    out.k = k;
    out.indices.resize(cloud.size() * k);
    out.counts.resize(cloud.size());
    for (const part::NodeIdx leaf_idx : tree.leaves()) {
        const part::BlockNode &leaf = tree.node(leaf_idx);
        const part::BlockNode &space =
            tree.node(tree.searchSpaceNode(leaf_idx));
        std::vector<PointIdx> candidates;
        for (std::size_t i = 0; i < sorted_pos.size(); ++i)
            if (sorted_pos[i] >= space.begin && sorted_pos[i] < space.end)
                candidates.push_back(sorted_idx[i]);
        if (candidates.empty())
            candidates = sorted_idx;
        for (std::uint32_t pos = leaf.begin; pos < leaf.end; ++pos) {
            const PointIdx query_idx = tree.order()[pos];
            ops::TopK top(k);
            for (const PointIdx c : candidates)
                top.offer(distance2(cloud[query_idx], cloud[c]), c);
            top.emitRow(out.indices.data() + std::size_t{query_idx} * k);
            out.counts[query_idx] =
                static_cast<std::uint32_t>(top.count());
            out.stats.points_visited += candidates.size();
            out.stats.distance_computations += candidates.size();
            ++out.stats.iterations;
        }
    }
    return out;
}

void
expectSameStats(const ops::OpStats &got, const ops::OpStats &want,
                const std::string &where)
{
    EXPECT_EQ(got.distance_computations, want.distance_computations)
        << where;
    EXPECT_EQ(got.points_visited, want.points_visited) << where;
    EXPECT_EQ(got.iterations, want.iterations) << where;
    EXPECT_EQ(got.skipped, want.skipped) << where;
    EXPECT_EQ(got.bytes_gathered, want.bytes_gathered) << where;
}

/**
 * Per method, the quota and counting options the method is served
 * with elsewhere (fixed count for space-uniform blocks), plus one
 * method without the window check so both counting paths run.
 */
ops::FpsOptions
fpsOptionsFor(part::Method method)
{
    ops::FpsOptions options;
    options.fixed_count_per_block = method == part::Method::Uniform;
    options.window_check = method != part::Method::KdTree;
    return options;
}

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

/**
 * The block ops on @p cloud against the references, for every method,
 * SIMD level and pool size. The ball query, the KNN and the
 * interpolation take the reference samples, so a sampling mismatch
 * cannot mask another one. The interpolation reference is the
 * reference KNN fed to the serial ops::interpolateFeatures blend.
 */
void
expectMatchesReference(const char *name, const data::PointCloud &cloud,
                       float radius, std::size_t k)
{
    LevelGuard guard;
    std::vector<simd::Level> levels = {simd::Level::Scalar};
    if (simd::avx2Available())
        levels.push_back(simd::Level::Avx2);
    core::ThreadPool pool2(2);
    core::ThreadPool pool8(8);
    const double rate = 0.25;
    const std::size_t knn_k = 3;
    const std::size_t channels = 5;

    for (const part::Method method :
         {part::Method::Fractal, part::Method::KdTree,
          part::Method::Octree, part::Method::Uniform,
          part::Method::None}) {
        part::PartitionConfig config;
        config.threshold = 128;
        const part::PartitionResult part =
            part::makePartitioner(method)->partition(cloud, config);
        const ops::FpsOptions options = fpsOptionsFor(method);
        const ops::BlockSampleResult want_sample =
            referenceBlockFps(cloud, part.tree, rate, options);
        const ops::NeighborResult want_group = referenceBlockBallQuery(
            cloud, part.tree, want_sample, radius, k);
        const ops::NeighborResult want_knn =
            referenceBlockKnn(cloud, part.tree, want_sample, knn_k);
        std::vector<float> known(want_sample.indices.size() * channels);
        Pcg32 rng(11);
        for (float &v : known)
            v = rng.uniform(-2.0f, 2.0f);
        const ops::InterpolateResult want_interp =
            ops::interpolateFeatures(cloud, known, channels,
                                     want_sample.indices, want_knn,
                                     nullptr);

        for (const simd::Level level : levels) {
            ASSERT_TRUE(simd::setActiveLevel(level));
            for (core::ThreadPool *pool :
                 {static_cast<core::ThreadPool *>(nullptr), &pool2,
                  &pool8}) {
                const std::string where =
                    std::string(name) + " " + part::methodName(method) +
                    " " + simd::levelName(level) + " threads " +
                    std::to_string(pool ? pool->numThreads() : 0);
                core::Workspace ws;
                ops::BlockSampleResult sample;
                ops::blockFarthestPointSample(cloud, part.tree, rate,
                                              options, pool, ws, sample);
                EXPECT_EQ(sample.indices, want_sample.indices) << where;
                EXPECT_EQ(sample.positions, want_sample.positions)
                    << where;
                EXPECT_EQ(sample.leaf_offsets, want_sample.leaf_offsets)
                    << where;
                expectSameStats(sample.stats, want_sample.stats,
                                where + " fps");

                ops::NeighborResult group;
                ops::blockBallQuery(cloud, part.tree, want_sample, radius,
                                    k, pool, ws, group);
                EXPECT_EQ(group.num_centers, want_group.num_centers)
                    << where;
                EXPECT_EQ(group.k, want_group.k) << where;
                EXPECT_EQ(group.indices, want_group.indices) << where;
                EXPECT_EQ(group.counts, want_group.counts) << where;
                expectSameStats(group.stats, want_group.stats,
                                where + " ball query");

                ops::NeighborResult knn;
                ops::blockKnnToSamples(cloud, part.tree, want_sample,
                                       knn_k, pool, ws, knn);
                EXPECT_EQ(knn.num_centers, want_knn.num_centers) << where;
                EXPECT_EQ(knn.k, want_knn.k) << where;
                EXPECT_EQ(knn.indices, want_knn.indices) << where;
                EXPECT_EQ(knn.counts, want_knn.counts) << where;
                expectSameStats(knn.stats, want_knn.stats,
                                where + " knn");

                ops::InterpolateResult interp;
                ops::blockInterpolate(cloud, part.tree, want_sample,
                                      known, channels, knn_k, pool, ws,
                                      interp);
                EXPECT_EQ(interp.num_points, want_interp.num_points)
                    << where;
                EXPECT_EQ(interp.channels, want_interp.channels)
                    << where;
                EXPECT_EQ(interp.values, want_interp.values) << where;
                expectSameStats(interp.stats, want_interp.stats,
                                where + " interpolate");
            }
        }
    }
}

TEST(BlockLayout, IndoorSceneMatchesPerCandidateReference)
{
    expectMatchesReference("s3dis", data::makeS3disScene(2048, 5), 0.2f,
                           16);
}

TEST(BlockLayout, LidarFrameMatchesPerCandidateReference)
{
    // 32x sparser than a served 131072-point frame, so the served
    // 0.5 m radius grows by about cbrt(32) for rows to still fill up
    // to k and stop early.
    Pcg32 rng(77);
    expectMatchesReference("lidar", data::makeLidarFrame(rng, 4096), 1.6f,
                           32);
}

} // namespace
} // namespace fc
