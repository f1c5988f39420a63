/**
 * @file
 * Tests for the block-parallel execution runtime: ThreadPool /
 * TaskGroup / parallelFor semantics, and bit-identical determinism of
 * every parallelized layer (partition construction, block-wise ops,
 * batched pipeline) against the sequential path.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <gtest/gtest.h>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "dataset/s3dis.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/interpolate.h"
#include "ops/knn_graph.h"
#include "ops/neighbor.h"
#include "partition/detail.h"
#include "partition/partitioner.h"

namespace fc {
namespace {

using core::ThreadPool;

// ------------------------------------------------------------ pool basics

TEST(ThreadPool, ResolvesThreadCount)
{
    EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreadCount(1), 1u);
    EXPECT_EQ(ThreadPool::resolveThreadCount(7), 7u);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNothingAndRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 1u);
    std::vector<int> order;
    core::TaskGroup group(&pool);
    group.run([&] { order.push_back(1); });
    group.run([&] { order.push_back(2); });
    group.wait();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    core::parallelFor(&pool, 0, n, 7,
                      [&](std::size_t cb, std::size_t ce) {
                          for (std::size_t i = cb; i < ce; ++i)
                              hits[i].fetch_add(1);
                      });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount)
{
    // Chunk shape is a pure function of (begin, end, grain): every
    // thread count must observe the same cut points.
    auto boundaries = [](unsigned threads) {
        ThreadPool pool(threads);
        std::mutex mutex;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        core::parallelFor(&pool, 3, 100, 13,
                          [&](std::size_t cb, std::size_t ce) {
                              std::lock_guard<std::mutex> lock(mutex);
                              chunks.emplace_back(cb, ce);
                          });
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    const auto seq = boundaries(1);
    EXPECT_EQ(seq.front().first, 3u);
    EXPECT_EQ(seq.back().second, 100u);
    EXPECT_EQ(boundaries(2), seq);
    EXPECT_EQ(boundaries(8), seq);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        core::parallelFor(&pool, 0, 100, 1,
                          [&](std::size_t cb, std::size_t) {
                              if (cb == 42)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // Null-pool (sequential) path propagates too.
    EXPECT_THROW(
        core::parallelFor(nullptr, 0, 10, 1,
                          [&](std::size_t, std::size_t) {
                              throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(ParallelFor, PoolSurvivesThrowingWork)
{
    // After an exception the pool must keep scheduling new work.
    ThreadPool pool(4);
    EXPECT_THROW(core::parallelFor(&pool, 0, 8, 1,
                                   [&](std::size_t, std::size_t) {
                                       throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
    std::atomic<int> sum{0};
    core::parallelFor(&pool, 0, 100, 1,
                      [&](std::size_t cb, std::size_t) {
                          sum.fetch_add(static_cast<int>(cb));
                      });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, WaiterHelpsChunksButNeverDetachedTasks)
{
    // Standalone pool, both workers parked: the only runnable thread
    // is the TaskGroup waiter. It must drain the fork/join lane (its
    // own chunk) but never the detached lane — a helper running a
    // whole unrelated request would nest that request's latency onto
    // the waiter's stack.
    ThreadPool pool(2, /*standalone=*/true);
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> parked{0};
    for (int w = 0; w < 2; ++w) {
        pool.submitDetached([&] {
            std::unique_lock<std::mutex> lock(mutex);
            parked.fetch_add(1);
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        });
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return parked.load() == 2; });
    }

    std::atomic<bool> detached_ran{false};
    pool.submitDetached([&] { detached_ran.store(true); });
    std::atomic<bool> chunk_ran{false};
    core::TaskGroup group(&pool);
    group.run([&] { chunk_ran.store(true); });
    group.wait(); // only the waiter can make progress here
    EXPECT_TRUE(chunk_ran.load());
    EXPECT_FALSE(detached_ran.load())
        << "help-join must not execute detached work";

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    while (!detached_ran.load())
        std::this_thread::yield(); // a freed worker picks it up
}

TEST(TaskGroup, NestedSubmitDoesNotDeadlock)
{
    // Tasks forking subtasks onto the same pool is exactly what the
    // recursive partition builders do; waiting threads must help.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    core::TaskGroup outer(&pool);
    for (int t = 0; t < 8; ++t) {
        outer.run([&] {
            core::TaskGroup inner(&pool);
            for (int s = 0; s < 8; ++s)
                inner.run([&] { total.fetch_add(1); });
            inner.wait();
        });
    }
    outer.wait();
    EXPECT_EQ(total.load(), 64);
}

TEST(ParallelReduce, FoldsInChunkOrder)
{
    ThreadPool pool(8);
    // Concatenation is non-commutative: any out-of-order fold shows.
    const std::vector<std::size_t> folded = core::parallelReduce(
        &pool, 0, 100, 9, std::vector<std::size_t>{},
        [](std::size_t cb, std::size_t ce) {
            std::vector<std::size_t> chunk;
            for (std::size_t i = cb; i < ce; ++i)
                chunk.push_back(i);
            return chunk;
        },
        [](std::vector<std::size_t> &acc,
           std::vector<std::size_t> &&chunk) {
            acc.insert(acc.end(), chunk.begin(), chunk.end());
        });
    std::vector<std::size_t> expect(100);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(folded, expect);
}

// -------------------------------------------------------- determinism

void
expectStatsEqual(const ops::OpStats &a, const ops::OpStats &b)
{
    EXPECT_EQ(a.distance_computations, b.distance_computations);
    EXPECT_EQ(a.points_visited, b.points_visited);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.bytes_gathered, b.bytes_gathered);
}

void
expectTreesIdentical(const part::PartitionResult &a,
                     const part::PartitionResult &b)
{
    ASSERT_EQ(a.tree.numNodes(), b.tree.numNodes());
    EXPECT_EQ(a.tree.order(), b.tree.order());
    EXPECT_EQ(a.tree.leaves(), b.tree.leaves());
    for (std::size_t i = 0; i < a.tree.numNodes(); ++i) {
        const part::BlockNode &na =
            a.tree.node(static_cast<part::NodeIdx>(i));
        const part::BlockNode &nb =
            b.tree.node(static_cast<part::NodeIdx>(i));
        EXPECT_EQ(na.begin, nb.begin) << "node " << i;
        EXPECT_EQ(na.end, nb.end) << "node " << i;
        EXPECT_EQ(na.parent, nb.parent) << "node " << i;
        EXPECT_EQ(na.left, nb.left) << "node " << i;
        EXPECT_EQ(na.right, nb.right) << "node " << i;
        EXPECT_EQ(na.depth, nb.depth) << "node " << i;
        EXPECT_EQ(na.splitDim, nb.splitDim) << "node " << i;
        EXPECT_EQ(na.splitValue, nb.splitValue) << "node " << i;
    }
    EXPECT_EQ(a.stats.elements_traversed, b.stats.elements_traversed);
    EXPECT_EQ(a.stats.traversal_passes, b.stats.traversal_passes);
    EXPECT_EQ(a.stats.num_sorts, b.stats.num_sorts);
    EXPECT_EQ(a.stats.sort_compares, b.stats.sort_compares);
    EXPECT_EQ(a.stats.degenerate_retries, b.stats.degenerate_retries);
    EXPECT_EQ(a.stats.num_splits, b.stats.num_splits);
}

/** Thread counts every determinism test sweeps. */
const unsigned kThreadSweep[] = {1, 2, 8};

/** Partition methods with a tree worth checking. */
const part::Method kMethodSweep[] = {part::Method::Fractal,
                                     part::Method::KdTree,
                                     part::Method::Octree,
                                     part::Method::Uniform};

TEST(ParallelDeterminism, PartitionTreesMatchSequential)
{
    // 8192 points with th=256 forks subtree tasks well above the
    // builders' cutoff, so the parallel path is really exercised.
    const data::PointCloud scene = data::makeS3disScene(8192, 21);
    part::PartitionConfig config;
    config.threshold = 256;
    for (const part::Method method : kMethodSweep) {
        const auto partitioner = part::makePartitioner(method);
        const part::PartitionResult sequential =
            partitioner->partition(scene, config, nullptr);
        for (const unsigned threads : kThreadSweep) {
            ThreadPool pool(threads);
            const part::PartitionResult parallel =
                partitioner->partition(scene, config, &pool);
            SCOPED_TRACE(part::methodName(method) + " threads=" +
                         std::to_string(threads));
            expectTreesIdentical(sequential, parallel);
        }
    }
}

TEST(ParallelDeterminism, BlockOpsMatchSequential)
{
    const data::PointCloud scene = data::makeS3disScene(8192, 22);
    part::PartitionConfig config;
    config.threshold = 256;
    for (const part::Method method : kMethodSweep) {
        const auto partitioner = part::makePartitioner(method);
        const part::PartitionResult part =
            partitioner->partition(scene, config, nullptr);

        const ops::BlockSampleResult seq_sampled =
            ops::blockFarthestPointSample(scene, part.tree, 0.25, {},
                                          nullptr);
        const ops::NeighborResult seq_grouped = ops::blockBallQuery(
            scene, part.tree, seq_sampled, 0.2f, 16, nullptr);
        const ops::KnnGraph seq_graph =
            ops::buildBlockKnnGraph(scene, part.tree, 8, nullptr);

        for (const unsigned threads : kThreadSweep) {
            SCOPED_TRACE(part::methodName(method) + " threads=" +
                         std::to_string(threads));
            ThreadPool pool(threads);

            const ops::BlockSampleResult sampled =
                ops::blockFarthestPointSample(scene, part.tree, 0.25,
                                              {}, &pool);
            EXPECT_EQ(sampled.indices, seq_sampled.indices);
            EXPECT_EQ(sampled.positions, seq_sampled.positions);
            EXPECT_EQ(sampled.leaf_offsets, seq_sampled.leaf_offsets);
            expectStatsEqual(sampled.stats, seq_sampled.stats);

            const ops::NeighborResult grouped = ops::blockBallQuery(
                scene, part.tree, sampled, 0.2f, 16, &pool);
            EXPECT_EQ(grouped.indices, seq_grouped.indices);
            EXPECT_EQ(grouped.counts, seq_grouped.counts);
            expectStatsEqual(grouped.stats, seq_grouped.stats);

            const ops::KnnGraph graph =
                ops::buildBlockKnnGraph(scene, part.tree, 8, &pool);
            EXPECT_EQ(graph.edges, seq_graph.edges);
            expectStatsEqual(graph.stats, seq_graph.stats);
        }
    }
}

TEST(ParallelDeterminism, GatherAndInterpolateMatchSequential)
{
    data::PointCloud scene = data::makeS3disScene(4096, 23);
    const auto partitioner = part::makePartitioner(part::Method::Fractal);
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part =
        partitioner->partition(scene, config, nullptr);

    const ops::BlockSampleResult sampled =
        ops::blockFarthestPointSample(scene, part.tree, 0.25, {},
                                      nullptr);
    const ops::NeighborResult grouped =
        ops::blockBallQuery(scene, part.tree, sampled, 0.25f, 16,
                            nullptr);
    const ops::GatherResult seq_gathered =
        ops::blockGatherNeighborhoods(scene, part.tree, sampled.indices,
                                      sampled.leaf_offsets, grouped,
                                      nullptr);

    // Known features: one row per sampled point.
    constexpr std::size_t channels = 8;
    std::vector<float> known(sampled.indices.size() * channels);
    for (std::size_t i = 0; i < known.size(); ++i)
        known[i] = 0.01f * static_cast<float>(i % 97);
    const ops::InterpolateResult seq_interp =
        ops::blockInterpolate(scene, part.tree, known, channels,
                              sampled.indices, 3, nullptr);

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);

        const ops::GatherResult gathered =
            ops::blockGatherNeighborhoods(scene, part.tree,
                                          sampled.indices,
                                          sampled.leaf_offsets, grouped,
                                          &pool);
        // Bit-exact float comparison is intentional: the parallel
        // schedule must not change a single operation.
        EXPECT_EQ(gathered.values, seq_gathered.values);
        expectStatsEqual(gathered.stats, seq_gathered.stats);

        const ops::InterpolateResult interp =
            ops::blockInterpolate(scene, part.tree, known, channels,
                                  sampled.indices, 3, &pool);
        EXPECT_EQ(interp.values, seq_interp.values);
        expectStatsEqual(interp.stats, seq_interp.stats);
    }
}

TEST(ParallelDeterminism, PipelineEndToEndMatchesSequential)
{
    const data::PointCloud scene = data::makeS3disScene(8192, 24);
    PipelineOptions sequential;
    sequential.num_threads = 1;
    const FractalCloudPipeline seq(scene, sequential);
    const ops::BlockSampleResult seq_sampled = seq.sample(0.25);

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PipelineOptions options;
        options.num_threads = threads;
        const FractalCloudPipeline pipeline(scene, options);
        EXPECT_EQ(pipeline.tree().order(), seq.tree().order());
        const ops::BlockSampleResult sampled = pipeline.sample(0.25);
        EXPECT_EQ(sampled.indices, seq_sampled.indices);
    }
}

// ------------------------------------------------- parallel splitRange

/**
 * A cloud whose x coordinates come from @p xs. y and z tag each point
 * (its index and minus its index), so a test can see them move with
 * order() through a split on x.
 */
data::PointCloud
cloudFromX(const std::vector<float> &xs)
{
    data::PointCloud cloud;
    for (std::size_t i = 0; i < xs.size(); ++i)
        cloud.addPoint({xs[i], static_cast<float>(i),
                        -static_cast<float>(i)});
    return cloud;
}

/** A tree loaded with @p cloud: identity order, coordinates in points(). */
part::BlockTree
loadedTree(const data::PointCloud &cloud)
{
    part::BlockTree tree;
    tree.load(cloud.coords());
    return tree;
}

/** Identity order [0, n). */
std::vector<PointIdx>
identityOrder(std::size_t n)
{
    std::vector<PointIdx> order(n);
    std::iota(order.begin(), order.end(), 0);
    return order;
}

/** Reference: plain std::partition over the whole slice. */
std::uint32_t
referenceSplit(std::vector<PointIdx> &order,
               const data::PointCloud &cloud, std::uint32_t begin,
               std::uint32_t end, float value)
{
    auto mid = std::partition(order.begin() + begin,
                              order.begin() + end, [&](PointIdx idx) {
                                  return cloud[idx][0] < value;
                              });
    return static_cast<std::uint32_t>(mid - order.begin());
}

/** points() holds cloud[order()[pos]] at every position, bitwise. */
void
expectPointsFollowOrder(const part::BlockTree &tree,
                        const data::PointCloud &cloud)
{
    ASSERT_TRUE(tree.hasPoints());
    const core::simd::SoaView pts = tree.points();
    for (std::uint32_t pos = 0; pos < tree.numPoints(); ++pos) {
        const Vec3 &p = cloud[tree.order()[pos]];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pts.xs[pos]),
                  std::bit_cast<std::uint32_t>(p.x))
            << "position " << pos;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pts.ys[pos]),
                  std::bit_cast<std::uint32_t>(p.y))
            << "position " << pos;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pts.zs[pos]),
                  std::bit_cast<std::uint32_t>(p.z))
            << "position " << pos;
    }
}

TEST(SplitRangeParallel, ByteIdenticalToStdPartitionOnAdversarialInputs)
{
    // Above the parallel cutoff, on inputs where std::partition is
    // the identity — all-equal coordinates (the predicate is uniform)
    // and presorted slices — the chunked algorithm must reproduce its
    // arrangement byte for byte at every thread count.
    const std::uint32_t n = 3 * part::detail::kSplitParallelCutoff / 2;
    struct Case
    {
        const char *name;
        std::vector<float> xs;
        float value;
    };
    std::vector<Case> cases;
    cases.push_back({"all-equal-below", std::vector<float>(n, 1.0f),
                     2.0f}); // everything goes left
    cases.push_back({"all-equal-above", std::vector<float>(n, 1.0f),
                     0.5f}); // everything goes right
    {
        std::vector<float> sorted(n);
        for (std::uint32_t i = 0; i < n; ++i)
            sorted[i] = static_cast<float>(i);
        cases.push_back({"presorted", sorted,
                         static_cast<float>(n / 3)});
    }

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const data::PointCloud cloud = cloudFromX(c.xs);
        std::vector<PointIdx> expect = identityOrder(n);
        const std::uint32_t expect_mid =
            referenceSplit(expect, cloud, 0, n, c.value);

        for (const unsigned threads : kThreadSweep) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ThreadPool pool(threads);
            part::BlockTree tree = loadedTree(cloud);
            const std::uint32_t mid = part::detail::splitRange(
                tree, 0, n, 0, c.value, &pool);
            EXPECT_EQ(mid, expect_mid);
            EXPECT_EQ(tree.order(), expect);
            expectPointsFollowOrder(tree, cloud);
        }
        // Null pool takes the same chunked path inline.
        part::BlockTree tree = loadedTree(cloud);
        const std::uint32_t mid =
            part::detail::splitRange(tree, 0, n, 0, c.value, nullptr);
        EXPECT_EQ(mid, expect_mid);
        EXPECT_EQ(tree.order(), expect);
        expectPointsFollowOrder(tree, cloud);
    }
}

TEST(SplitRangeParallel, EmptyAndOnePointRanges)
{
    const data::PointCloud cloud =
        cloudFromX({0.5f, -1.0f, 2.0f, 0.0f});
    ThreadPool pool(4);
    part::BlockTree tree = loadedTree(cloud);
    const std::vector<PointIdx> before = tree.order();

    // Empty range: nothing moves, mid == begin.
    EXPECT_EQ(part::detail::splitRange(tree, 2, 2, 0, 0.0f, &pool), 2u);
    EXPECT_EQ(tree.order(), before);

    // One-point ranges: mid reflects the single comparison.
    EXPECT_EQ(part::detail::splitRange(tree, 1, 2, 0, 0.0f, &pool),
              2u); // -1.0 < 0.0: left side
    EXPECT_EQ(part::detail::splitRange(tree, 2, 3, 0, 0.0f, &pool),
              2u); // 2.0 >= 0.0: right side
    EXPECT_EQ(tree.order(), before);
    expectPointsFollowOrder(tree, cloud);
}

TEST(SplitRangeParallel, MatchesNullPoolOnRandomInput)
{
    // General inputs: the arrangement is a pure function of the slice
    // (fixed chunking), so every thread count must agree with the
    // null-pool inline execution — and actually partition.
    const std::uint32_t n = 4 * part::detail::kSplitParallelCutoff;
    Pcg32 rng(99);
    std::vector<float> xs(n);
    for (auto &x : xs)
        x = rng.uniform(-1.0f, 1.0f);
    const data::PointCloud cloud = cloudFromX(xs);

    part::BlockTree baseline = loadedTree(cloud);
    const std::uint32_t base_mid =
        part::detail::splitRange(baseline, 0, n, 0, 0.25f, nullptr);
    ASSERT_GT(base_mid, 0u);
    ASSERT_LT(base_mid, n);
    for (std::uint32_t pos = 0; pos < n; ++pos)
        EXPECT_EQ(cloud[baseline.order()[pos]][0] < 0.25f, pos < base_mid)
            << "position " << pos;
    expectPointsFollowOrder(baseline, cloud);

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        part::BlockTree tree = loadedTree(cloud);
        const std::uint32_t mid =
            part::detail::splitRange(tree, 0, n, 0, 0.25f, &pool);
        EXPECT_EQ(mid, base_mid);
        EXPECT_EQ(tree.order(), baseline.order());
        expectPointsFollowOrder(tree, cloud);
    }
}

TEST(SplitRangeParallel, ChunkedSplitMatchesPerChunkStdPartition)
{
    // The chunked arrangement spelled out with std::partition: each
    // kSplitGrain chunk partitioned on its own, then every chunk's
    // left part in chunk order, then every right part. NaN keys go
    // right, as in std::partition's predicate.
    const std::uint32_t n = 3 * part::detail::kSplitParallelCutoff + 333;
    const std::uint32_t grain = part::detail::kSplitGrain;
    Pcg32 rng(2024);
    std::vector<float> xs(n);
    for (auto &x : xs)
        x = rng.uniform(0.0f, 1.0f) < 0.02f
                ? std::numeric_limits<float>::quiet_NaN()
                : rng.uniform(-1.0f, 1.0f);
    const data::PointCloud cloud = cloudFromX(xs);

    std::vector<PointIdx> chunked = identityOrder(n);
    std::vector<PointIdx> lefts;
    std::vector<PointIdx> rights;
    for (std::uint32_t cb = 0; cb < n; cb += grain) {
        const std::uint32_t ce = std::min(n, cb + grain);
        const std::uint32_t mid = referenceSplit(chunked, cloud, cb, ce, 0.1f);
        lefts.insert(lefts.end(), chunked.begin() + cb,
                     chunked.begin() + mid);
        rights.insert(rights.end(), chunked.begin() + mid,
                      chunked.begin() + ce);
    }
    std::vector<PointIdx> expect = lefts;
    expect.insert(expect.end(), rights.begin(), rights.end());

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        part::BlockTree tree = loadedTree(cloud);
        EXPECT_EQ(part::detail::splitRange(tree, 0, n, 0, 0.1f, &pool),
                  lefts.size());
        EXPECT_EQ(tree.order(), expect);
        expectPointsFollowOrder(tree, cloud);
    }
}

TEST(SplitRangeParallel, MedianSplitDeterministicAndCorrect)
{
    const std::uint32_t n = 2 * part::detail::kSplitParallelCutoff + 7;
    Pcg32 rng(7);
    std::vector<float> xs(n);
    for (auto &x : xs)
        x = rng.uniform(-10.0f, 10.0f);
    const data::PointCloud cloud = cloudFromX(xs);
    const std::uint32_t median = n / 2;

    part::BlockTree baseline = loadedTree(cloud);
    part::detail::medianSplit(baseline, 0, n, 0, nullptr);
    const std::vector<PointIdx> &order = baseline.order();

    // nth_element semantics: left side <= order[median] <= right side,
    // and the median value matches a full sort.
    std::vector<float> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(cloud[order[median]][0], sorted[median]);
    for (std::uint32_t pos = 0; pos < median; ++pos)
        EXPECT_LE(cloud[order[pos]][0], cloud[order[median]][0]);
    for (std::uint32_t pos = median; pos < n; ++pos)
        EXPECT_GE(cloud[order[pos]][0], cloud[order[median]][0]);
    expectPointsFollowOrder(baseline, cloud);

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        part::BlockTree tree = loadedTree(cloud);
        part::detail::medianSplit(tree, 0, n, 0, &pool);
        EXPECT_EQ(tree.order(), order);
        expectPointsFollowOrder(tree, cloud);
    }

    // All-equal coordinates: the quickselect must terminate (the
    // extrema collapse) and leave the slice untouched.
    const data::PointCloud flat =
        cloudFromX(std::vector<float>(n, 3.0f));
    ThreadPool pool(4);
    part::BlockTree tree = loadedTree(flat);
    part::detail::medianSplit(tree, 0, n, 0, &pool);
    EXPECT_EQ(tree.order(), identityOrder(n));
    expectPointsFollowOrder(tree, flat);
}

TEST(SplitRangeParallel, SmallMedianSplitMatchesStdNthElement)
{
    // Below the parallel cutoff the selection runs nth_element over
    // (key, slot) pairs and permutes the arrays by slot; that must
    // equal nth_element over order() with a comparator reading the
    // cloud, duplicates and NaN keys included.
    Pcg32 rng(31);
    for (const std::uint32_t n :
         {2u, 3u, 17u, 100u, 1000u,
          part::detail::kSplitParallelCutoff - 1}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        std::vector<float> xs(n);
        for (auto &x : xs) {
            const float u = rng.uniform(0.0f, 1.0f);
            x = u < 0.05f   ? std::numeric_limits<float>::quiet_NaN()
                : u < 0.3f ? static_cast<float>(rng.next() % 4)
                           : rng.uniform(-5.0f, 5.0f);
        }
        const data::PointCloud cloud = cloudFromX(xs);
        std::vector<PointIdx> expect = identityOrder(n);
        std::nth_element(expect.begin(), expect.begin() + n / 2,
                         expect.end(), [&](PointIdx a, PointIdx b) {
                             return cloud[a][0] < cloud[b][0];
                         });
        part::BlockTree tree = loadedTree(cloud);
        part::detail::medianSplit(tree, 0, n, 0, nullptr);
        EXPECT_EQ(tree.order(), expect);
        expectPointsFollowOrder(tree, cloud);
    }
}

TEST(SplitRangeParallel, MedianSplitSurvivesHugeCoordinateRange)
{
    // A slice spanning more than FLT_MAX: the naive extrema midpoint
    // minv + (maxv - minv) * 0.5f overflows to inf, which would send
    // every element one way and hang the quickselect.
    const std::uint32_t n = part::detail::kSplitParallelCutoff + 64;
    Pcg32 rng(11);
    std::vector<float> xs(n);
    for (auto &x : xs)
        // Scale after drawing: uniform(-3e38, 3e38) itself would
        // overflow in its hi - lo span computation.
        x = rng.uniform(-1.0f, 1.0f) * 3e38f;
    const data::PointCloud cloud = cloudFromX(xs);
    const std::uint32_t median = n / 2;

    ThreadPool pool(4);
    part::BlockTree tree = loadedTree(cloud);
    part::detail::medianSplit(tree, 0, n, 0, &pool);
    const std::vector<PointIdx> &order = tree.order();

    std::vector<float> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(cloud[order[median]][0], sorted[median]);
    for (std::uint32_t pos = 0; pos < median; ++pos)
        EXPECT_LE(cloud[order[pos]][0], cloud[order[median]][0]);
    for (std::uint32_t pos = median; pos < n; ++pos)
        EXPECT_GE(cloud[order[pos]][0], cloud[order[median]][0]);
    expectPointsFollowOrder(tree, cloud);
}

TEST(ParallelDeterminism, RunBatchMatchesSequentialPipelines)
{
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 30; seed < 36; ++seed)
        clouds.push_back(data::makeS3disScene(2048, seed));

    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.25f;
    request.neighbors = 16;

    PipelineOptions sequential;
    sequential.num_threads = 1;
    const std::vector<BatchResult> baseline =
        FractalCloudPipeline::runBatch(clouds, sequential, request);
    ASSERT_EQ(baseline.size(), clouds.size());

    // Baseline itself must equal per-cloud sequential pipelines.
    for (std::size_t i = 0; i < clouds.size(); ++i) {
        const FractalCloudPipeline pipeline(clouds[i], sequential);
        const ops::BlockSampleResult sampled =
            pipeline.sample(request.sample_rate);
        EXPECT_EQ(baseline[i].sampled.indices, sampled.indices);
        EXPECT_EQ(baseline[i].num_blocks,
                  pipeline.tree().leaves().size());
    }

    for (const unsigned threads : kThreadSweep) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PipelineOptions options;
        options.num_threads = threads;
        const std::vector<BatchResult> batch =
            FractalCloudPipeline::runBatch(clouds, options, request);
        ASSERT_EQ(batch.size(), clouds.size());
        for (std::size_t i = 0; i < clouds.size(); ++i) {
            EXPECT_EQ(batch[i].sampled.indices,
                      baseline[i].sampled.indices);
            EXPECT_EQ(batch[i].sampled.leaf_offsets,
                      baseline[i].sampled.leaf_offsets);
            EXPECT_EQ(batch[i].grouped.indices,
                      baseline[i].grouped.indices);
            EXPECT_EQ(batch[i].grouped.counts,
                      baseline[i].grouped.counts);
            EXPECT_EQ(batch[i].gathered.values,
                      baseline[i].gathered.values);
            EXPECT_EQ(batch[i].num_blocks, baseline[i].num_blocks);
            EXPECT_EQ(batch[i].partition_stats.num_splits,
                      baseline[i].partition_stats.num_splits);
        }
    }
}

} // namespace
} // namespace fc
