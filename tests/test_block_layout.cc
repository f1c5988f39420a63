/**
 * @file
 * The block ops over the tree's DFT-ordered coordinates, pinned to the
 * per-candidate loops they replaced.
 *
 * blockFarthestPointSample and blockBallQuery read each leaf's search
 * space from BlockTree::points() with contiguous addressing, and
 * blockInterpolate screens the known points of each search space
 * there at their DFT positions and blends from the top-k's own
 * distances. The references here read every candidate from the cloud
 * by point id, one at a time, exactly as the ops did before the tree
 * carried coordinates; the interpolation reference is that block KNN
 * table fed to the ops::interpolateFeatures blend. Rows, counts,
 * indices, positions, interpolated values and every OpStats field
 * must match for every partitioner, on an indoor scene and a LiDAR
 * frame, at both SIMD levels, with no pool and with 2- and 8-thread
 * pools (the pooled cases run in CI's TSan filter). Three more
 * interpolation cases reach the paths FPS samples do not: rows
 * shorter than k, search spaces without a known point, and top-k ties
 * between duplicate points.
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

/** What the reference interpolation met, summed over its calls. */
struct ReferencePaths
{
    /** Rows with fewer than k neighbors (padded). */
    std::size_t short_rows = 0;
    /** Leaves whose search space held no known point. */
    std::size_t fallback_leaves = 0;
    /** Rows whose neighbors include two at equal distance. */
    std::size_t tied_rows = 0;
};

/**
 * Block KNN to the known points, screening candidates from the cloud
 * by point id: each leaf's candidates are the known points whose DFT
 * position falls in its search space (all of them when none does),
 * offered to the top-k in ascending position order.
 */
ops::NeighborResult
referenceBlockKnn(const data::PointCloud &cloud,
                  const part::BlockTree &tree,
                  const std::vector<PointIdx> &known_ids, std::size_t k,
                  ReferencePaths &paths)
{
    std::vector<std::uint32_t> position_of(tree.numPoints());
    for (std::uint32_t pos = 0; pos < tree.numPoints(); ++pos)
        position_of[tree.order()[pos]] = pos;
    std::vector<std::uint32_t> sorted_pos;
    for (const PointIdx id : known_ids)
        sorted_pos.push_back(position_of[id]);
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
        if (candidates.empty()) {
            candidates = sorted_idx;
            paths.fallback_leaves += leaf.size() > 0;
        }
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
            paths.short_rows += top.count() < k;
            for (std::size_t j = 1; j < top.count(); ++j)
                if (top.data()[j].first == top.data()[j - 1].first) {
                    ++paths.tied_rows;
                    break;
                }
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
 * Runs @p check(pool, label) at both SIMD levels (Avx2 when the CPU
 * has it) with no pool and with 2- and 8-thread pools; the label
 * names the level and the thread count.
 */
template <typename Check>
void
forEachLevelAndPool(Check check)
{
    LevelGuard guard;
    std::vector<simd::Level> levels = {simd::Level::Scalar};
    if (simd::avx2Available())
        levels.push_back(simd::Level::Avx2);
    core::ThreadPool pool2(2);
    core::ThreadPool pool8(8);
    for (const simd::Level level : levels) {
        ASSERT_TRUE(simd::setActiveLevel(level));
        for (core::ThreadPool *pool :
             {static_cast<core::ThreadPool *>(nullptr), &pool2, &pool8})
            check(pool, std::string(" ") + simd::levelName(level) +
                            " threads " +
                            std::to_string(pool ? pool->numThreads() : 0));
    }
}

/** Random feature rows, one per known point. */
std::vector<float>
knownFeatures(std::size_t rows, std::size_t channels)
{
    std::vector<float> known(rows * channels);
    Pcg32 rng(11);
    for (float &v : known)
        v = rng.uniform(-2.0f, 2.0f);
    return known;
}

/**
 * blockInterpolate over @p tree against the reference KNN fed to the
 * serial ops::interpolateFeatures blend, at every level and pool.
 */
void
expectInterpolateMatchesReference(const std::string &where,
                                  const data::PointCloud &cloud,
                                  const part::BlockTree &tree,
                                  const std::vector<PointIdx> &known_ids,
                                  std::size_t k, ReferencePaths &paths)
{
    const std::size_t channels = 5;
    const std::vector<float> known =
        knownFeatures(known_ids.size(), channels);
    const ops::InterpolateResult want = ops::interpolateFeatures(
        cloud, known, channels, known_ids,
        referenceBlockKnn(cloud, tree, known_ids, k, paths), nullptr);
    forEachLevelAndPool([&](core::ThreadPool *pool,
                            const std::string &label) {
        core::Workspace ws;
        ops::InterpolateResult interp;
        ops::blockInterpolate(cloud, tree, known, channels, known_ids, k,
                              pool, ws, interp);
        EXPECT_EQ(interp.num_points, want.num_points) << where << label;
        EXPECT_EQ(interp.channels, want.channels) << where << label;
        EXPECT_EQ(interp.values, want.values) << where << label;
        expectSameStats(interp.stats, want.stats,
                        where + label + " interpolate");
    });
}

/** The partitioners, each at threshold 128. */
std::vector<std::pair<part::Method, part::PartitionResult>>
partitionEveryWay(const data::PointCloud &cloud)
{
    std::vector<std::pair<part::Method, part::PartitionResult>> out;
    for (const part::Method method :
         {part::Method::Fractal, part::Method::KdTree,
          part::Method::Octree, part::Method::Uniform,
          part::Method::None}) {
        part::PartitionConfig config;
        config.threshold = 128;
        out.emplace_back(method, part::makePartitioner(method)->partition(
                                     cloud, config));
    }
    return out;
}

/** blockInterpolate against the reference over every partitioner. */
ReferencePaths
expectInterpolateMatchesEveryWay(const char *name,
                                 const data::PointCloud &cloud,
                                 const std::vector<PointIdx> &known_ids,
                                 std::size_t k)
{
    ReferencePaths paths;
    for (const auto &[method, part] : partitionEveryWay(cloud))
        expectInterpolateMatchesReference(
            std::string(name) + " " + part::methodName(method), cloud,
            part.tree, known_ids, k, paths);
    return paths;
}

/**
 * The block ops on @p cloud against the references, for every method,
 * SIMD level and pool size. The ball query and the interpolation take
 * the reference samples, so a sampling mismatch cannot mask another
 * one.
 */
void
expectMatchesReference(const char *name, const data::PointCloud &cloud,
                       float radius, std::size_t k)
{
    const double rate = 0.25;
    for (const auto &partitioned : partitionEveryWay(cloud)) {
        const part::Method method = partitioned.first;
        const part::PartitionResult &part = partitioned.second;
        const std::string where =
            std::string(name) + " " + part::methodName(method);
        const ops::FpsOptions options = fpsOptionsFor(method);
        const ops::BlockSampleResult want_sample =
            referenceBlockFps(cloud, part.tree, rate, options);
        const ops::NeighborResult want_group = referenceBlockBallQuery(
            cloud, part.tree, want_sample, radius, k);

        forEachLevelAndPool([&](core::ThreadPool *pool,
                                const std::string &label) {
            core::Workspace ws;
            ops::BlockSampleResult sample;
            ops::blockFarthestPointSample(cloud, part.tree, rate, options,
                                          pool, ws, sample);
            EXPECT_EQ(sample.indices, want_sample.indices)
                << where << label;
            EXPECT_EQ(sample.positions, want_sample.positions)
                << where << label;
            EXPECT_EQ(sample.leaf_offsets, want_sample.leaf_offsets)
                << where << label;
            expectSameStats(sample.stats, want_sample.stats,
                            where + label + " fps");

            ops::NeighborResult group;
            ops::blockBallQuery(cloud, part.tree, want_sample, radius, k,
                                pool, ws, group);
            EXPECT_EQ(group.num_centers, want_group.num_centers)
                << where << label;
            EXPECT_EQ(group.k, want_group.k) << where << label;
            EXPECT_EQ(group.indices, want_group.indices)
                << where << label;
            EXPECT_EQ(group.counts, want_group.counts) << where << label;
            expectSameStats(group.stats, want_group.stats,
                            where + label + " ball query");
        });

        ReferencePaths paths;
        expectInterpolateMatchesReference(where, cloud, part.tree,
                                          want_sample.indices, 3, paths);
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

TEST(BlockLayout, RowsShorterThanKRepeatTheirNearest)
{
    // Two known points for k = 3: every row is short, so the blend
    // repeats each row's nearest entry, as NeighborResult pads.
    const ReferencePaths paths = expectInterpolateMatchesEveryWay(
        "two known", data::makeS3disScene(2048, 5), {1500, 7}, 3);
    EXPECT_GT(paths.short_rows, 0u);
}

TEST(BlockLayout, SearchSpacesWithoutKnownPointsUseThemAll)
{
    // Known points only in the lowest-x eighth of the scene, listed
    // in descending id order: most search spaces hold none and fall
    // back to every known point.
    const data::PointCloud cloud = data::makeS3disScene(2048, 6);
    std::vector<float> xs;
    for (std::size_t i = 0; i < cloud.size(); ++i)
        xs.push_back(cloud[static_cast<PointIdx>(i)].x);
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 8, xs.end());
    const float cut = xs[xs.size() / 8];
    std::vector<PointIdx> known;
    for (std::size_t i = cloud.size(); i-- > 0;)
        if (cloud[static_cast<PointIdx>(i)].x < cut)
            known.push_back(static_cast<PointIdx>(i));
    const ReferencePaths paths =
        expectInterpolateMatchesEveryWay("one region", cloud, known, 3);
    EXPECT_GT(paths.fallback_leaves, 0u);
}

TEST(BlockLayout, DuplicatePointsTieInOfferOrder)
{
    // An 8x8x8 grid with every point twice, and every fourth point
    // known (both copies of each known grid point): equal distances
    // everywhere, so the top-k settles ties by offer order.
    std::vector<Vec3> coords;
    for (int copy = 0; copy < 2; ++copy)
        for (int x = 0; x < 8; ++x)
            for (int y = 0; y < 8; ++y)
                for (int z = 0; z < 8; ++z)
                    coords.emplace_back(0.1f * x, 0.1f * y, 0.1f * z);
    const data::PointCloud cloud(coords);
    std::vector<PointIdx> known;
    for (PointIdx i = 0; i < cloud.size(); i += 4)
        known.push_back(i);
    const ReferencePaths paths =
        expectInterpolateMatchesEveryWay("grid", cloud, known, 3);
    EXPECT_GT(paths.tied_rows, 0u);
}

} // namespace
} // namespace fc
