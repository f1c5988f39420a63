/**
 * @file
 * Delayed-aggregation (nn::Aggregation::Delayed) equivalence and
 * invariant matrix:
 *
 *  - Exactness pin: when every neighborhood collapses to its center
 *    (tiny radius), Eager and Delayed are bit-identical — the two
 *    orders compute literally the same rows.
 *  - Tolerance: the Eager/Delayed gap at the pooling step is bounded
 *    by the MLP's response to ||r_ij|| <= radius, so shrinking the
 *    radius shrinks the gap to zero.
 *  - Within Delayed, every runtime invariant holds: bit-identical
 *    across 1/2/8 threads, under forced-scalar dispatch, with
 *    root_partition reuse, and through the serving path.
 *  - Row accounting: sa_mlp_rows counts unique points (Delayed) vs
 *    gathered rows (Eager), and Delayed is strictly smaller.
 *  - Ops level: gatherMaxPool and blockGatherMaxPool == gather-then-
 *    fold, bitwise, on scene and handcrafted (NaN/±0/±inf) tables;
 *    maxPoolRelativeCoords on a handcrafted neighborhood.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "nn/network.h"
#include "ops/gather.h"
#include "ops/neighbor.h"
#include "partition/fractal.h"
#include "serve/async_pipeline.h"

namespace fc {
namespace {

namespace simd = core::simd;

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

/** Compact two-stage segmentation model (SA + FP + head). */
nn::ModelConfig
tinySegModel(float radius0 = 0.3f, float radius1 = 0.6f)
{
    nn::ModelConfig m;
    m.name = "tiny-seg";
    m.long_name = "tiny segmentation (delayed-aggregation tests)";
    m.task = nn::Task::SemanticSegmentation;
    m.sa.resize(2);
    m.sa[0] = {0.25, radius0, 8, {16, 16}};
    m.sa[1] = {0.25, radius1, 8, {32, 32}};
    m.fp.resize(2);
    m.fp[0].mlp = {32};
    m.fp[1].mlp = {16};
    m.head = {13};
    m.num_classes = 13;
    return m;
}

/** Classification variant (global pool + head, no FP). */
nn::ModelConfig
tinyClsModel(float radius0 = 0.3f, float radius1 = 0.6f)
{
    nn::ModelConfig m = tinySegModel(radius0, radius1);
    m.name = "tiny-cls";
    m.long_name = "tiny classification (delayed-aggregation tests)";
    m.task = nn::Task::Classification;
    m.fp.clear();
    m.head = {16, 10};
    m.num_classes = 10;
    return m;
}

/** A well-separated grid cloud: nearest-neighbor distance is the
 *  grid step, so a tiny ball-query radius makes every neighborhood
 *  exactly {center}. */
data::PointCloud
gridCloud(std::size_t side)
{
    std::vector<Vec3> pts;
    pts.reserve(side * side * side);
    for (std::size_t x = 0; x < side; ++x)
        for (std::size_t y = 0; y < side; ++y)
            for (std::size_t z = 0; z < side; ++z)
                pts.emplace_back(static_cast<float>(x),
                                 static_cast<float>(y),
                                 static_cast<float>(z));
    return data::PointCloud(std::move(pts));
}

void
expectBitIdentical(const nn::InferenceResult &a,
                   const nn::InferenceResult &b)
{
    EXPECT_EQ(a.embedding.data(), b.embedding.data());
    EXPECT_EQ(a.point_features.data(), b.point_features.data());
    EXPECT_EQ(a.total_macs, b.total_macs);
    EXPECT_EQ(a.sa_mlp_rows, b.sa_mlp_rows);
}

float
maxAbsDiff(const nn::Tensor &a, const nn::Tensor &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    float worst = 0.0f;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
    return worst;
}

// ---------------------------------------------------------------------
// Eager vs Delayed equivalence
// ---------------------------------------------------------------------

TEST(DelayedAggregation, ExactWhenNeighborhoodsCollapse)
{
    // Radius far below the grid step: every ball query returns only
    // the center itself, so r_ij = 0 and the pooled rel-coord summary
    // is 0 — the eager rows and the delayed unique rows are literally
    // the same values and the two orders must agree bit for bit.
    const data::PointCloud cloud = gridCloud(10); // 1000 points, step 1
    const nn::Network seg(tinySegModel(1e-4f, 1e-4f), 42);
    const nn::Network cls(tinyClsModel(1e-4f, 1e-4f), 42);

    for (const nn::Network *net : {&seg, &cls}) {
        SCOPED_TRACE(net->config().name);
        nn::BackendOptions backend;
        backend.method = part::Method::Fractal;
        backend.threshold = 64;

        backend.aggregation = nn::Aggregation::Eager;
        const nn::InferenceResult eager = net->run(cloud, backend);
        backend.aggregation = nn::Aggregation::Delayed;
        const nn::InferenceResult delayed = net->run(cloud, backend);

        EXPECT_EQ(eager.embedding.data(), delayed.embedding.data());
        EXPECT_EQ(eager.point_features.data(),
                  delayed.point_features.data());
        // Work counters differ by design: fewer MLP rows, fewer MACs.
        EXPECT_LT(delayed.sa_mlp_rows, eager.sa_mlp_rows);
        EXPECT_LT(delayed.total_macs, eager.total_macs);
    }
}

TEST(DelayedAggregation, GapVanishesAsRadiusShrinks)
{
    // The documented tolerance at the pooling step is bounded by the
    // MLP's response to ||r_ij|| <= radius: shrinking the radius must
    // shrink the Eager/Delayed gap, down to exactly zero once every
    // neighborhood is {center}.
    const data::PointCloud scene = data::makeS3disScene(1024, 7);

    float prev_gap = -1.0f;
    for (const float radius : {0.3f, 1e-6f}) {
        const nn::Network net(tinySegModel(radius, 2 * radius), 42);
        nn::BackendOptions backend;
        backend.method = part::Method::Fractal;
        backend.threshold = 64;

        backend.aggregation = nn::Aggregation::Eager;
        const nn::InferenceResult eager = net.run(scene, backend);
        backend.aggregation = nn::Aggregation::Delayed;
        const nn::InferenceResult delayed = net.run(scene, backend);

        const float gap =
            maxAbsDiff(eager.point_features, delayed.point_features);
        EXPECT_TRUE(std::isfinite(gap));
        if (prev_gap >= 0.0f) {
            EXPECT_LE(gap, prev_gap);
        }
        prev_gap = gap;
    }
    EXPECT_EQ(prev_gap, 0.0f); // collapsed neighborhoods: exact
}

// ---------------------------------------------------------------------
// Invariants within Delayed
// ---------------------------------------------------------------------

TEST(DelayedAggregation, BitIdenticalAcrossThreadCounts)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 17);
    const nn::Network net(tinySegModel(), 42);
    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    backend.threshold = 64;
    backend.aggregation = nn::Aggregation::Delayed;

    backend.pool = nullptr;
    const nn::InferenceResult sequential = net.run(scene, backend);
    EXPECT_GT(sequential.sa_mlp_rows, 0u);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::ThreadPool pool(threads);
        backend.pool = &pool;
        const nn::InferenceResult parallel = net.run(scene, backend);
        expectBitIdentical(sequential, parallel);
    }
}

TEST(DelayedAggregation, GlobalOpsPathMatchesItselfAcrossThreads)
{
    // method=None exercises the global gatherMaxPool arm, whose
    // center rows dispatch over the pool.
    const data::PointCloud scene = data::makeS3disScene(1024, 19);
    const nn::Network net(tinyClsModel(), 42);
    nn::BackendOptions backend;
    backend.method = part::Method::None;
    backend.aggregation = nn::Aggregation::Delayed;

    backend.pool = nullptr;
    const nn::InferenceResult sequential = net.run(scene, backend);
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::ThreadPool pool(threads);
        backend.pool = &pool;
        expectBitIdentical(sequential, net.run(scene, backend));
    }
}

TEST(DelayedAggregation, ForcedScalarIsDeterministic)
{
    // Every kernel is bit-identical across dispatch levels, so the
    // forced-scalar run must reproduce the default level's run bit for
    // bit, and warm/cold and threaded runs under forced-scalar must
    // match too.
    const data::PointCloud scene = data::makeS3disScene(1024, 23);
    const nn::Network net(tinySegModel(), 42);
    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    backend.threshold = 64;
    backend.aggregation = nn::Aggregation::Delayed;

    const nn::InferenceResult default_level = net.run(scene, backend);

    LevelGuard guard;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar));
    const nn::InferenceResult cold = net.run(scene, backend);
    expectBitIdentical(default_level, cold);

    core::Workspace ws;
    nn::InferenceResult warm;
    net.run(scene, backend, ws, warm); // grows slots
    ws.reset();
    net.run(scene, backend, ws, warm); // reuses them
    expectBitIdentical(cold, warm);

    core::ThreadPool pool(4);
    backend.pool = &pool;
    expectBitIdentical(cold, net.run(scene, backend));
}

TEST(DelayedAggregation, RootPartitionReuseIsInvisible)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 31);
    const nn::Network net(tinySegModel(), 42);

    part::PartitionConfig pconfig;
    pconfig.threshold = 64;
    const part::PartitionResult part =
        part::FractalPartitioner().partition(scene, pconfig);

    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    backend.threshold = 64;
    backend.aggregation = nn::Aggregation::Delayed;

    const nn::InferenceResult fresh = net.run(scene, backend);
    backend.root_partition = &part;
    expectBitIdentical(fresh, net.run(scene, backend));
}

TEST(DelayedAggregation, ServePathMatchesDirectRun)
{
    // Per-request plumbing: BatchRequest::aggregation reaches the
    // network's backend, and the sharded serving path reproduces the
    // direct run bit for bit.
    const data::PointCloud scene = data::makeS3disScene(1024, 37);
    const nn::Network net(tinySegModel(), 42);

    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    backend.threshold = 64;
    backend.aggregation = nn::Aggregation::Delayed;
    const nn::InferenceResult direct = net.run(scene, backend);

    serve::ServeOptions options;
    options.pipeline.method = part::Method::Fractal;
    options.pipeline.threshold = 64;
    options.pipeline.num_threads = 2;
    serve::AsyncPipeline server(options);

    BatchRequest request;
    request.network = &net;
    request.aggregation = nn::Aggregation::Delayed;
    const serve::RequestOutcome outcome =
        server.wait(server.submit(scene, request));
    ASSERT_EQ(outcome.state, serve::RequestState::Done)
        << outcome.error;
    ASSERT_TRUE(outcome.result.inference.has_value());
    expectBitIdentical(direct, *outcome.result.inference);

    // An eager request through the same server differs (same model,
    // different execution order ⇒ different row count).
    BatchRequest eager_request;
    eager_request.network = &net;
    const serve::RequestOutcome eager_outcome =
        server.wait(server.submit(scene, eager_request));
    ASSERT_EQ(eager_outcome.state, serve::RequestState::Done);
    ASSERT_TRUE(eager_outcome.result.inference.has_value());
    EXPECT_GT(eager_outcome.result.inference->sa_mlp_rows,
              direct.sa_mlp_rows);
}

TEST(DelayedAggregation, RowAccountingCountsUniquePoints)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 41);
    const nn::ModelConfig config = tinySegModel();
    const nn::Network net(config, 42);
    // Global sampling: level sizes are exactly round(rate * n).
    // (Block-wise FPS rounds per block, so the totals drift by a few
    // points — the strict inequality below is checked either way.)
    nn::BackendOptions backend;
    backend.method = part::Method::None;

    backend.aggregation = nn::Aggregation::Delayed;
    const nn::InferenceResult delayed = net.run(scene, backend);

    // Delayed: one MLP row per unique input point of each SA stage.
    std::uint64_t expected = 0;
    std::size_t level_n = scene.size();
    for (const nn::SaStageConfig &stage : config.sa) {
        expected += level_n;
        level_n = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   stage.sample_rate * static_cast<double>(level_n))));
    }
    EXPECT_EQ(delayed.sa_mlp_rows, expected);

    // Eager: one row per gathered (center, neighbor) pair.
    backend.aggregation = nn::Aggregation::Eager;
    const nn::InferenceResult eager = net.run(scene, backend);
    std::uint64_t eager_expected = 0;
    level_n = scene.size();
    for (const nn::SaStageConfig &stage : config.sa) {
        const std::size_t centers = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   stage.sample_rate * static_cast<double>(level_n))));
        eager_expected += centers * stage.k;
        level_n = centers;
    }
    EXPECT_EQ(eager.sa_mlp_rows, eager_expected);
    EXPECT_LT(delayed.sa_mlp_rows, eager.sa_mlp_rows);

    // The inequality also holds on the block-sampled path.
    backend.method = part::Method::Fractal;
    backend.threshold = 64;
    backend.aggregation = nn::Aggregation::Delayed;
    const nn::InferenceResult block_delayed = net.run(scene, backend);
    backend.aggregation = nn::Aggregation::Eager;
    const nn::InferenceResult block_eager = net.run(scene, backend);
    EXPECT_LT(block_delayed.sa_mlp_rows, block_eager.sa_mlp_rows);
}

// ---------------------------------------------------------------------
// Ops level
// ---------------------------------------------------------------------

/**
 * Test-local reference for the fused ops: materialize each center's k
 * gathered rows (kInvalidPoint -> zero row), then fold them exactly
 * like nn::maxPoolGroups — slot 0 copied, later slots std::max'd in.
 */
std::vector<float>
gatherThenFold(const std::vector<float> &features, std::size_t channels,
               const ops::NeighborResult &nbr)
{
    std::vector<float> pooled(nbr.num_centers * channels);
    std::vector<float> rows(nbr.k * channels);
    for (std::size_t i = 0; i < nbr.num_centers; ++i) {
        for (std::size_t j = 0; j < nbr.k; ++j) {
            const PointIdx nb = nbr.neighbor(i, j);
            for (std::size_t c = 0; c < channels; ++c)
                rows[j * channels + c] =
                    nb == kInvalidPoint
                        ? 0.0f
                        : features[static_cast<std::size_t>(nb) *
                                       channels +
                                   c];
        }
        float *dst = pooled.data() + i * channels;
        for (std::size_t c = 0; c < channels; ++c)
            dst[c] = rows[c];
        for (std::size_t j = 1; j < nbr.k; ++j)
            for (std::size_t c = 0; c < channels; ++c)
                dst[c] = std::max(dst[c], rows[j * channels + c]);
    }
    return pooled;
}

/** Runs both fused ops with no pool and with 2- and 8-thread pools,
 *  comparing bit patterns against gatherThenFold and pinning stats. */
void
expectFusedMatchesReference(const std::vector<float> &features,
                            std::size_t channels,
                            const ops::NeighborResult &nbr,
                            const part::BlockTree &tree,
                            const std::vector<std::uint32_t> &offsets)
{
    const std::vector<float> expected =
        gatherThenFold(features, channels, nbr);
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(nbr.num_centers) * nbr.k;
    std::uint64_t block_bytes = 0;
    for (std::size_t li = 0; li < tree.leaves().size(); ++li)
        if (offsets[li] != offsets[li + 1])
            block_bytes +=
                static_cast<std::uint64_t>(
                    tree.node(tree.searchSpaceNode(tree.leaves()[li]))
                        .size()) *
                channels * 2;

    core::ThreadPool pool2(2);
    core::ThreadPool pool8(8);
    for (core::ThreadPool *pool :
         {static_cast<core::ThreadPool *>(nullptr), &pool2, &pool8}) {
        SCOPED_TRACE(pool == nullptr ? 0u : pool->numThreads());
        // NaN-filled outputs: every element must be overwritten.
        std::vector<float> global(expected.size(),
                                  std::numeric_limits<float>::quiet_NaN());
        const ops::OpStats gstats =
            ops::gatherMaxPool(features, channels, nbr, pool, global);
        EXPECT_EQ(0, std::memcmp(global.data(), expected.data(),
                                 expected.size() * sizeof(float)));
        EXPECT_EQ(gstats.points_visited, pairs);
        EXPECT_EQ(gstats.bytes_gathered, pairs * channels * 2);

        std::vector<float> block(expected.size(),
                                 std::numeric_limits<float>::quiet_NaN());
        const ops::OpStats bstats = ops::blockGatherMaxPool(
            features, channels, tree, offsets, nbr, pool, block);
        EXPECT_EQ(0, std::memcmp(block.data(), expected.data(),
                                 expected.size() * sizeof(float)));
        EXPECT_EQ(bstats.points_visited, pairs);
        EXPECT_EQ(bstats.bytes_gathered, block_bytes);
    }
}

TEST(FeatureGather, MaxPoolMatchesGatherThenFoldBitwise)
{
    // (a) The scene neighbor table of a block-wise grouping stage.
    {
        const data::PointCloud scene = data::makeS3disScene(2048, 43);
        PipelineOptions options;
        options.threshold = 64;
        options.num_threads = 2;
        const FractalCloudPipeline pipeline(scene, options);

        const ops::BlockSampleResult sampled = pipeline.sample(0.25);
        const ops::NeighborResult neighbors =
            pipeline.group(sampled, 0.3f, 16);

        // A synthetic per-point feature tensor (any row-major buffer).
        const std::size_t channels = 8;
        std::vector<float> features(scene.size() * channels);
        for (std::size_t i = 0; i < features.size(); ++i)
            features[i] =
                static_cast<float>((i * 2654435761u) % 997) - 498.0f;

        SCOPED_TRACE("scene table");
        expectFusedMatchesReference(features, channels, neighbors,
                                    pipeline.tree(),
                                    sampled.leaf_offsets);
    }

    // (b) Handcrafted tables over 6 points whose 4 channels put NaN,
    // +0/-0 and +-inf in different slots, so the fold order shows in
    // the bit patterns (std::max keeps its first argument on NaN and
    // on equal signed zeros).
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::size_t channels = 4;
    const std::vector<float> features = {
        nan,   -0.0f, inf,   -inf,  // point 0
        1.0f,  0.0f,  -inf,  nan,   // point 1
        -2.0f, -0.0f, 3.0f,  -inf,  // point 2
        nan,   0.0f,  -0.0f, inf,   // point 3
        -inf,  -0.0f, -0.0f, -1.0f, // point 4
        0.0f,  nan,   -inf,  0.0f,  // point 5
    };
    std::vector<Vec3> pts;
    for (int i = 0; i < 6; ++i)
        pts.emplace_back(static_cast<float>(i), 0.0f, 0.0f);
    const data::PointCloud line(std::move(pts));
    part::PartitionConfig pconfig;
    pconfig.threshold = 2;
    const part::PartitionResult part =
        part::FractalPartitioner().partition(line, pconfig);
    const std::size_t num_leaves = part.tree.leaves().size();
    ASSERT_GT(num_leaves, 1u);
    // Leaf li owns row li (the last leaf takes any remainder); leaves
    // past the last row stay empty and must be charged nothing.
    const auto leafOffsets = [&](std::size_t rows) {
        std::vector<std::uint32_t> offsets(num_leaves + 1);
        for (std::size_t li = 0; li < num_leaves; ++li)
            offsets[li] =
                static_cast<std::uint32_t>(std::min(li, rows));
        offsets[num_leaves] = static_cast<std::uint32_t>(rows);
        return offsets;
    };

    ops::NeighborResult padded;
    padded.num_centers = 5;
    padded.k = 4;
    constexpr PointIdx kNone = kInvalidPoint;
    padded.indices = {
        0,     1,     0,     0,     // two real neighbors, padded
        kNone, kNone, kNone, kNone, // no neighbors at all (count 0)
        1,     3,     5,     2,     // NaN after a number, -0 vs +0
        4,     2,     kNone, kNone, // -0 and -inf folded with zero rows
        3,     0,     4,     3,     // NaN leads, then -inf and +inf
    };
    padded.counts = {2, 0, 4, 2, 4};
    {
        SCOPED_TRACE("padded k=4 table");
        expectFusedMatchesReference(features, channels, padded, part.tree,
                                    leafOffsets(padded.num_centers));
    }

    ops::NeighborResult single;
    single.num_centers = 4;
    single.k = 1;
    single.indices = {3, kInvalidPoint, 4, 0};
    single.counts = {1, 0, 1, 1};
    {
        SCOPED_TRACE("k=1 table");
        expectFusedMatchesReference(features, channels, single, part.tree,
                                    leafOffsets(single.num_centers));
    }
}

TEST(FeatureGather, MaxPoolRelativeCoordsHandcrafted)
{
    // Center 0 at origin with real neighbors at (+1,0,0) and
    // (0,-2,+3); center 1 with itself only. Padding replicates the
    // first neighbor and must not change the max.
    std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, -2, 3},
                             {5, 5, 5}};
    const data::PointCloud cloud(std::move(pts));
    const std::vector<PointIdx> centers = {0, 3};

    ops::NeighborResult nbr;
    nbr.num_centers = 2;
    nbr.k = 4;
    nbr.indices = {0, 1, 2, 0,  // center 0: self, two real, pad
                   3, 3, 3, 3}; // center 1: self only + pads
    nbr.counts = {3, 1};

    std::vector<float> pooled;
    ops::maxPoolRelativeCoords(cloud, centers, nbr, nullptr, pooled);
    ASSERT_EQ(pooled.size(), 6u);
    // Channel-wise max over {(0,0,0), (1,0,0), (0,-2,3)}.
    EXPECT_EQ(pooled[0], 1.0f);
    EXPECT_EQ(pooled[1], 0.0f);
    EXPECT_EQ(pooled[2], 3.0f);
    // Self-only neighborhood: all-zero summary.
    EXPECT_EQ(pooled[3], 0.0f);
    EXPECT_EQ(pooled[4], 0.0f);
    EXPECT_EQ(pooled[5], 0.0f);
}

} // namespace
} // namespace fc
