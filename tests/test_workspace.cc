/**
 * @file
 * The allocation-free steady state, proven.
 *
 *  - Arena / Workspace unit behaviour (alignment, reset reuse, slot
 *    persistence).
 *  - A global operator-new hook counts every heap allocation in the
 *    test binary; the steady-state tests assert the second-and-later
 *    same-shape infer() performs exactly zero.
 *  - Workspace-reuse determinism: warm results equal cold results
 *    byte for byte — value API vs workspace API, across thread
 *    counts, and through the serve path (which must also reuse its
 *    pooled workspaces rather than growing).
 *  - The pooled global FPS / ball-query / KNN / interpolation
 *    fallbacks match their serial selves at every thread count
 *    (GlobalOpsParallel, in the TSan CI filter).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/workspace.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "nn/network.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/interpolate.h"
#include "ops/knn_graph.h"
#include "ops/neighbor.h"
#include "serve/async_pipeline.h"

// Counting allocator: shared hook replacing the global allocation
// operators binary-wide (see src/common/alloc_hook.h). Tests only
// read deltas around the calls they measure, so coexistence with
// gtest/sanitizer allocations is benign.
#include "common/alloc_hook.h"

namespace {

using namespace fc;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/** Tiny two-stage segmentation network: covers SA, FP, and head. */
nn::ModelConfig
tinySegModel()
{
    nn::ModelConfig m;
    m.name = "tiny-seg";
    m.long_name = "tiny segmentation";
    m.task = nn::Task::SemanticSegmentation;
    nn::SaStageConfig s0;
    s0.sample_rate = 0.25;
    s0.radius = 0.3f;
    s0.k = 8;
    s0.mlp = {16, 16};
    nn::SaStageConfig s1;
    s1.sample_rate = 0.25;
    s1.radius = 0.6f;
    s1.k = 8;
    s1.mlp = {32, 32};
    m.sa = {s0, s1};
    nn::FpStageConfig f0;
    f0.mlp = {32};
    nn::FpStageConfig f1;
    f1.mlp = {16};
    m.fp = {f0, f1};
    m.head = {13};
    m.num_classes = 13;
    return m;
}

/** Tiny classification head (no FP pass). */
nn::ModelConfig
tinyClsModel()
{
    nn::ModelConfig m = tinySegModel();
    m.name = "tiny-cls";
    m.long_name = "tiny classification";
    m.task = nn::Task::Classification;
    m.fp.clear();
    m.head = {16, 10};
    m.num_classes = 10;
    return m;
}

void
expectIdenticalResults(const nn::InferenceResult &a,
                       const nn::InferenceResult &b)
{
    EXPECT_EQ(a.embedding.data(), b.embedding.data());
    EXPECT_EQ(a.embedding.rows(), b.embedding.rows());
    EXPECT_EQ(a.point_features.data(), b.point_features.data());
    EXPECT_EQ(a.point_features.rows(), b.point_features.rows());
    EXPECT_EQ(a.total_macs, b.total_macs);
    EXPECT_EQ(a.op_stats.distance_computations,
              b.op_stats.distance_computations);
    EXPECT_EQ(a.op_stats.points_visited, b.op_stats.points_visited);
    EXPECT_EQ(a.op_stats.iterations, b.op_stats.iterations);
    EXPECT_EQ(a.op_stats.bytes_gathered, b.op_stats.bytes_gathered);
    EXPECT_EQ(a.partition_stats.elements_traversed,
              b.partition_stats.elements_traversed);
    EXPECT_EQ(a.partition_stats.num_splits,
              b.partition_stats.num_splits);
}

void
expectIdenticalStats(const ops::OpStats &a, const ops::OpStats &b)
{
    EXPECT_EQ(a.distance_computations, b.distance_computations);
    EXPECT_EQ(a.points_visited, b.points_visited);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.bytes_gathered, b.bytes_gathered);
}

/** Every @p stride-th point of @p n as the known (sampled) ids. */
std::vector<PointIdx>
strideIds(std::size_t n, std::size_t stride)
{
    std::vector<PointIdx> ids;
    for (std::size_t i = 0; i < n; i += stride)
        ids.push_back(static_cast<PointIdx>(i));
    return ids;
}

// ---------------------------------------------------------------------
// Arena / Workspace units
// ---------------------------------------------------------------------

TEST(Arena, AlignsAndRoundsEveryAllocation)
{
    core::Arena arena;
    void *a = arena.allocate(1);
    void *b = arena.allocate(65);
    void *c = arena.allocate(64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
    // Sizes round up to the 64-byte granule, so the running total is
    // independent of allocation order.
    EXPECT_EQ(arena.bytesUsed(), 64u + 128u + 64u);
}

TEST(Arena, ResetReplaysIntoRetainedChunks)
{
    core::Arena arena;
    std::span<float> first = arena.allocSpan<float>(1000, 1.0f);
    const void *cold_ptr = first.data();
    const std::size_t reserved = arena.bytesReserved();
    const std::size_t chunks = arena.chunkCount();

    arena.reset();
    EXPECT_EQ(arena.bytesUsed(), 0u);
    std::span<float> second = arena.allocSpan<float>(1000, 2.0f);
    // Same request sequence lands in the same storage: no growth.
    EXPECT_EQ(static_cast<const void *>(second.data()), cold_ptr);
    EXPECT_EQ(arena.bytesReserved(), reserved);
    EXPECT_EQ(arena.chunkCount(), chunks);
}

TEST(Arena, GrowsOnlyOnFirstSeenLargerShapes)
{
    core::Arena arena;
    arena.allocSpan<std::uint8_t>(100);
    const std::size_t small_reserved = arena.bytesReserved();
    arena.reset();
    arena.allocSpan<std::uint8_t>(1 << 20); // larger shape: grows
    const std::size_t big_reserved = arena.bytesReserved();
    EXPECT_GT(big_reserved, small_reserved);
    arena.reset();
    arena.allocSpan<std::uint8_t>(1 << 20); // same shape: no growth
    EXPECT_EQ(arena.bytesReserved(), big_reserved);
}

TEST(Workspace, SlotsPersistAcrossReset)
{
    core::Workspace ws;
    std::vector<int> &v = ws.slot<std::vector<int>>("test.v");
    v.assign(100, 7);
    const void *data = v.data();
    ws.reset();
    std::vector<int> &again = ws.slot<std::vector<int>>("test.v");
    EXPECT_EQ(&again, &v);
    EXPECT_EQ(static_cast<const void *>(again.data()), data);
    EXPECT_EQ(again.size(), 100u);
    EXPECT_EQ(ws.slotCount(), 1u);
}

// ---------------------------------------------------------------------
// Zero heap allocations in steady state
// ---------------------------------------------------------------------

TEST(WorkspaceAlloc, SecondSegmentationInferIsAllocationFree)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 3);
    PipelineOptions options;
    options.num_threads = 1; // the sequential executor
    options.threshold = 64;
    const FractalCloudPipeline pipeline(scene, options);
    const nn::Network network(tinySegModel(), 42);

    nn::InferenceResult out;
    pipeline.infer(network, out); // cold: grows workspace + out

    const std::uint64_t before = fc::heapAllocCount();
    pipeline.infer(network, out); // second call: fully warm
    const std::uint64_t second = fc::heapAllocCount() - before;
    EXPECT_EQ(second, 0u);

    const std::uint64_t before3 = fc::heapAllocCount();
    pipeline.infer(network, out);
    EXPECT_EQ(fc::heapAllocCount() - before3, 0u);
}

TEST(WorkspaceAlloc, SecondClassificationInferIsAllocationFree)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 5);
    PipelineOptions options;
    options.num_threads = 1;
    options.threshold = 64;
    const FractalCloudPipeline pipeline(scene, options);
    const nn::Network network(tinyClsModel(), 42);

    nn::InferenceResult out;
    pipeline.infer(network, out);

    const std::uint64_t before = fc::heapAllocCount();
    pipeline.infer(network, out);
    EXPECT_EQ(fc::heapAllocCount() - before, 0u);
}

TEST(WorkspaceAlloc, SecondDelayedInferIsAllocationFree)
{
    // The delayed-aggregation order adds two workspace slots (the
    // unique-point MLP input and the pooled relative-coordinate
    // summary) and swaps the gather for a feature index-gather; the
    // warm same-shape guarantee must hold exactly as in eager mode.
    const data::PointCloud scene = data::makeS3disScene(1024, 3);
    const nn::Network network(tinySegModel(), 42);
    nn::BackendOptions backend;
    backend.method = part::Method::Fractal;
    backend.threshold = 64;
    backend.aggregation = nn::Aggregation::Delayed;

    core::Workspace ws;
    nn::InferenceResult out;
    network.run(scene, backend, ws, out); // cold: grows slots
    ws.reset();
    const std::uint64_t before = fc::heapAllocCount();
    network.run(scene, backend, ws, out); // warm
    EXPECT_EQ(fc::heapAllocCount() - before, 0u);
}

TEST(WorkspaceAlloc, WideReduceStagesPartialsInTheArena)
{
    // Above kReduceInlineChunks the pooled reduce historically fell
    // back to a heap vector for the per-chunk staging; with an arena
    // it must stay allocation-free warm.
    core::ThreadPool pool(2);
    core::Workspace ws;
    constexpr std::size_t n = 1000; // grain 1: 1000 chunks >> 64

    // Grow the pool's task ring past the reduce's worst-case backlog
    // deterministically: the ring only reallocates when the enqueued
    // backlog exceeds every backlog seen before, and how much of the
    // cold reduce's backlog the workers drain mid-enqueue is up to
    // the scheduler. Blocking the tasks until all are enqueued pins
    // the backlog at its maximum once, here, outside the measurement.
    {
        std::atomic<bool> release{false};
        core::TaskGroup group(&pool);
        for (std::size_t i = 0; i < n + 200; ++i)
            group.run([&release] {
                while (!release.load(std::memory_order_acquire))
                    std::this_thread::yield();
            });
        release.store(true, std::memory_order_release);
        group.wait();
    }
    const auto sum_below_n = [&] {
        return core::parallelReduce(
            &pool, 0, n, 1, std::uint64_t{0},
            [](std::size_t cb, std::size_t ce) {
                std::uint64_t s = 0;
                for (std::size_t i = cb; i < ce; ++i)
                    s += i;
                return s;
            },
            [](std::uint64_t &acc, std::uint64_t &&chunk) {
                acc += chunk;
            },
            &ws.arena());
    };
    const std::uint64_t expected = n * (n - 1) / 2;
    EXPECT_EQ(sum_below_n(), expected); // cold
    ws.reset();
    const std::uint64_t before = fc::heapAllocCount();
    EXPECT_EQ(sum_below_n(), expected); // warm
    EXPECT_EQ(fc::heapAllocCount() - before, 0u);
}

TEST(WorkspaceAlloc, WarmOpsDrawOnlyFromTheWorkspace)
{
    // The block ops' workspace overloads, exercised directly: cold
    // call grows, warm same-shape call is allocation-free.
    const data::PointCloud scene = data::makeS3disScene(2048, 7);
    const auto partitioner = part::makePartitioner(part::Method::Fractal);
    part::PartitionConfig config;
    config.threshold = 64;

    core::Workspace ws;
    part::PartitionResult part;
    ops::BlockSampleResult sampled;
    ops::NeighborResult grouped;
    ops::InterpolateResult interp;
    std::vector<float> known_feats;

    const auto run_all = [&] {
        partitioner->partitionInto(scene, config, nullptr, ws, part);
        ops::blockFarthestPointSample(scene, part.tree, 0.25, {},
                                      nullptr, ws, sampled);
        ops::blockBallQuery(scene, part.tree, sampled, 0.3f, 8,
                            nullptr, ws, grouped);
        known_feats.assign(sampled.indices.size() * 4, 0.5f);
        ops::blockInterpolate(scene, part.tree, known_feats, 4,
                              sampled.indices, 3, nullptr, ws, interp);
    };

    run_all(); // cold
    ws.reset();
    const std::uint64_t before = fc::heapAllocCount();
    run_all(); // warm
    EXPECT_EQ(fc::heapAllocCount() - before, 0u);
}

TEST(WorkspaceAlloc, PooledWarmBlockOpsDrawOnlyFromTheWorkspace)
{
    // The pooled sibling of WarmOpsDrawOnlyFromTheWorkspace: on a
    // 2-thread pool over a tree of more than kReduceInlineChunks (64)
    // leaves, every per-leaf reduce stages its chunk partials, and
    // the warm block ops must stage them in the workspace arena.
    const data::PointCloud scene = data::makeS3disScene(4096, 7);
    const auto partitioner = part::makePartitioner(part::Method::Fractal);
    part::PartitionConfig config;
    config.threshold = 16;
    core::ThreadPool pool(2);

    core::Workspace ws;
    part::PartitionResult part;
    ops::BlockSampleResult sampled;
    ops::NeighborResult grouped;
    ops::GatherResult gathered;
    std::vector<float> known_feats;
    ops::InterpolateResult interp;

    partitioner->partitionInto(scene, config, nullptr, ws, part);
    const std::size_t leaves = part.tree.leaves().size();
    ASSERT_GT(leaves, 64u);

    // Pre-grow the pool's task ring past the ops' per-leaf backlog, as
    // WideReduceStagesPartialsInTheArena does.
    {
        std::atomic<bool> release{false};
        core::TaskGroup group(&pool);
        for (std::size_t i = 0; i < leaves + 200; ++i)
            group.run([&release] {
                while (!release.load(std::memory_order_acquire))
                    std::this_thread::yield();
            });
        release.store(true, std::memory_order_release);
        group.wait();
    }

    const auto run_all = [&] {
        partitioner->partitionInto(scene, config, nullptr, ws, part);
        ops::blockFarthestPointSample(scene, part.tree, 0.25, {}, &pool,
                                      ws, sampled);
        ops::blockBallQuery(scene, part.tree, sampled, 0.3f, 8, &pool,
                            ws, grouped);
        ops::blockGatherNeighborhoods(scene, part.tree, sampled.indices,
                                      sampled.leaf_offsets, grouped,
                                      &pool, ws, gathered);
        known_feats.assign(sampled.indices.size() * 4, 0.5f);
        ops::blockInterpolate(scene, part.tree, known_feats, 4,
                              sampled.indices, 3, &pool, ws, interp);
    };

    run_all(); // cold
    ws.reset();
    const std::uint64_t before = fc::heapAllocCount();
    run_all(); // warm
    EXPECT_EQ(fc::heapAllocCount() - before, 0u);
}

TEST(WorkspaceAlloc, PooledWarmGlobalInterpolateIsAllocationFree)
{
    // The global FP path on a 2-thread pool: the KNN table sits in a
    // workspace slot, and the KNN reduce (196 chunks) stages its
    // partials in the arena.
    const data::PointCloud scene = data::makeS3disScene(4096, 71);
    const std::vector<PointIdx> known = strideIds(scene.size(), 16);
    const std::vector<float> features(known.size() * 8, 0.5f);
    core::ThreadPool pool(2);
    {
        // Pre-grow the pool's task ring past the reduces' backlog.
        std::atomic<bool> release{false};
        core::TaskGroup group(&pool);
        for (int i = 0; i < 1024; ++i)
            group.run([&release] {
                while (!release.load(std::memory_order_acquire))
                    std::this_thread::yield();
            });
        release.store(true, std::memory_order_release);
        group.wait();
    }
    core::Workspace ws;
    ops::InterpolateResult out;
    ops::globalInterpolate(scene, features, 8, known, 3, &pool, ws,
                           out); // cold
    ws.reset();
    const std::uint64_t before = fc::heapAllocCount();
    ops::globalInterpolate(scene, features, 8, known, 3, &pool, ws,
                           out); // warm
    EXPECT_EQ(fc::heapAllocCount() - before, 0u);
}

TEST(WorkspaceAlloc, WarmPartitionIsAllocationFreeForEveryMethod)
{
    // Every partitioner builds inside its BlockTree: a warm same-shape
    // partitionInto reloads the tree's arrays within their capacity
    // and draws all split scratch (records, chunk tables, the merge
    // buffer) from the arena, with no pool and on a 2-thread pool. The
    // scene is large enough for the chunked split and forked
    // subtrees.
    const data::PointCloud scene = data::makeS3disScene(16384, 9);
    part::PartitionConfig config;
    config.threshold = 64;
    core::ThreadPool pool(2);
    {
        // Pre-grow the pool's task ring past the builders' backlog.
        std::atomic<bool> release{false};
        core::TaskGroup group(&pool);
        for (int i = 0; i < 256; ++i)
            group.run([&release] {
                while (!release.load(std::memory_order_acquire))
                    std::this_thread::yield();
            });
        release.store(true, std::memory_order_release);
        group.wait();
    }
    for (const part::Method method :
         {part::Method::None, part::Method::Uniform, part::Method::Octree,
          part::Method::KdTree, part::Method::Fractal}) {
        const auto partitioner = part::makePartitioner(method);
        for (core::ThreadPool *p : {static_cast<core::ThreadPool *>(nullptr),
                                    &pool}) {
            SCOPED_TRACE(part::methodName(method) +
                         (p != nullptr ? " pooled" : " inline"));
            core::Workspace ws;
            part::PartitionResult part;
            partitioner->partitionInto(scene, config, p, ws, part); // cold
            ws.reset();
            const std::uint64_t before = fc::heapAllocCount();
            partitioner->partitionInto(scene, config, p, ws, part); // warm
            EXPECT_EQ(fc::heapAllocCount() - before, 0u);
        }
    }
}

TEST(WorkspaceAlloc, WarmServeRoundTripIsAllocationFree)
{
    // A warm same-shape submitShared -> waitInto round trip touches
    // the heap exactly zero times — admission (recycled record node +
    // id ring), dispatch (InlineTask ring), processing (per-shard
    // workspace), the result payload (the recycled record's own) and
    // consumption (a buffer swap) included. A ticket that retires
    // without a result in between must not cost the loop its warm
    // buffers. Checked in both aggregation orders: interactive
    // semseg serving runs Delayed through exactly this path.
    const auto scene = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(2048, 61));
    const nn::Network network(tinySegModel(), 42);

    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    for (const nn::Aggregation order :
         {nn::Aggregation::Eager, nn::Aggregation::Delayed}) {
        SCOPED_TRACE(order == nn::Aggregation::Eager ? "eager"
                                                     : "delayed");
        BatchRequest request;
        request.sample_rate = 0.25;
        request.radius = 0.3f;
        request.neighbors = 8;
        request.network = &network;
        request.aggregation = order;
        serve::AsyncPipeline server(options);

        serve::RequestOutcome out;
        for (int i = 0; i < 3; ++i) // warm pools, rings, capacities
            server.waitInto(server.submitShared(scene, request), out);
        ASSERT_EQ(out.state, serve::RequestState::Done);

        const std::uint64_t before = fc::heapAllocCount();
        server.waitInto(server.submitShared(scene, request), out);
        EXPECT_EQ(fc::heapAllocCount() - before, 0u);
        ASSERT_EQ(out.state, serve::RequestState::Done);

        // Already past its deadline at admission: retires Expired
        // without running, and leaves out.result as it was.
        server.waitInto(server.submitShared(scene, request,
                                            std::chrono::milliseconds(-1)),
                        out);
        ASSERT_EQ(out.state, serve::RequestState::Expired);
        const std::uint64_t after_expired = fc::heapAllocCount();
        for (int i = 0; i < 2; ++i) {
            server.waitInto(server.submitShared(scene, request), out);
            ASSERT_EQ(out.state, serve::RequestState::Done);
        }
        EXPECT_EQ(fc::heapAllocCount() - after_expired, 0u);

        EXPECT_EQ(server.workspacesCreated(), 1u);
        EXPECT_EQ(server.outcomeSlotsCreated(), 1u);
    }
}

// ---------------------------------------------------------------------
// Workspace-reuse determinism: warm == cold, byte for byte
// ---------------------------------------------------------------------

TEST(WorkspaceDeterminism, WarmEqualsColdAcrossThreadCounts)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 11);
    const nn::Network network(tinySegModel(), 42);

    nn::BackendOptions reference_backend;
    reference_backend.method = part::Method::Fractal;
    reference_backend.threshold = 64;
    const nn::InferenceResult reference =
        network.run(scene, reference_backend);

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::unique_ptr<core::ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<core::ThreadPool>(threads);
        nn::BackendOptions backend = reference_backend;
        backend.pool = pool.get();

        core::Workspace ws;
        nn::InferenceResult out;
        network.run(scene, backend, ws, out); // cold workspace
        expectIdenticalResults(out, reference);
        ws.reset();
        network.run(scene, backend, ws, out); // warm workspace
        expectIdenticalResults(out, reference);
    }
}

TEST(WorkspaceDeterminism, WorkspaceShapeChangesStayExact)
{
    // Shrinking then regrowing the request shape must not leak state
    // between runs: every result equals a fresh value-API run.
    const nn::Network network(tinyClsModel(), 42);
    core::Workspace ws;
    nn::InferenceResult out;
    for (const std::size_t n : {2048u, 512u, 1024u, 2048u}) {
        SCOPED_TRACE("points=" + std::to_string(n));
        const data::PointCloud cloud = data::makeS3disScene(n, 13);
        nn::BackendOptions backend;
        backend.method = part::Method::Fractal;
        backend.threshold = 64;
        ws.reset();
        network.run(cloud, backend, ws, out);
        expectIdenticalResults(out, network.run(cloud, backend));
    }
}

TEST(WorkspaceDeterminism, ServeReusesWorkspacesWithIdenticalResults)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 17);
    const nn::Network network(tinySegModel(), 42);

    PipelineOptions options;
    options.num_threads = 2;
    options.threshold = 64;
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;
    request.network = &network;

    // Blocking baseline for the same cloud.
    const std::vector<BatchResult> baseline =
        FractalCloudPipeline::runBatch({scene}, options, request);
    ASSERT_EQ(baseline.size(), 1u);
    ASSERT_TRUE(baseline[0].inference.has_value());

    serve::ServeOptions serve_options;
    serve_options.pipeline = options;
    serve::AsyncPipeline server(serve_options);

    // Sequential same-shape requests: one executor at a time, so one
    // workspace serves all of them — and every warm outcome is
    // byte-identical to the cold one and to the blocking path.
    for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        const serve::Ticket ticket = server.submit(scene, request);
        serve::RequestOutcome outcome = server.wait(ticket);
        ASSERT_EQ(outcome.state, serve::RequestState::Done);
        EXPECT_EQ(outcome.result.sampled.indices,
                  baseline[0].sampled.indices);
        EXPECT_EQ(outcome.result.grouped.indices,
                  baseline[0].grouped.indices);
        EXPECT_EQ(outcome.result.gathered.values,
                  baseline[0].gathered.values);
        ASSERT_TRUE(outcome.result.inference.has_value());
        expectIdenticalResults(*outcome.result.inference,
                               *baseline[0].inference);
    }
    EXPECT_EQ(server.workspacesCreated(), 1u);
}

TEST(WorkspaceDeterminism, PipelineInferOverloadsAgree)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 19);
    PipelineOptions options;
    options.num_threads = 1;
    options.threshold = 64;
    const FractalCloudPipeline pipeline(scene, options);
    const nn::Network network(tinySegModel(), 42);

    const nn::InferenceResult value = pipeline.infer(network);
    nn::InferenceResult out;
    pipeline.infer(network, out);
    expectIdenticalResults(out, value);
    pipeline.infer(network, out); // warm
    expectIdenticalResults(out, value);
}

// ---------------------------------------------------------------------
// Pooled global fallbacks (ROADMAP leftovers) stay bit-identical
// ---------------------------------------------------------------------

TEST(GlobalOpsParallel, FarthestPointSampleMatchesSerial)
{
    // A sweep chunk holds 32768 points: the small cloud runs inline
    // on every pool, the large one forks three chunks per iteration.
    struct Case
    {
        std::size_t points;
        std::size_t samples;
    };
    for (const Case c : {Case{2048, 300}, Case{70000, 24}}) {
        SCOPED_TRACE("points=" + std::to_string(c.points));
        const data::PointCloud scene =
            data::makeS3disScene(c.points, 23);
        const ops::SampleResult serial =
            ops::farthestPointSample(scene, c.samples);
        for (const unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            core::ThreadPool pool(threads);
            const ops::SampleResult pooled =
                ops::farthestPointSample(scene, c.samples, {}, &pool);
            EXPECT_EQ(pooled.indices, serial.indices);
            EXPECT_EQ(pooled.stats.distance_computations,
                      serial.stats.distance_computations);
            EXPECT_EQ(pooled.stats.points_visited,
                      serial.stats.points_visited);
            EXPECT_EQ(pooled.stats.skipped, serial.stats.skipped);
            EXPECT_EQ(pooled.stats.iterations,
                      serial.stats.iterations);
        }
    }
}

TEST(GlobalOpsParallel, FarthestPointSampleNoWindowCheckMatchesSerial)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 29);
    ops::FpsOptions options;
    options.window_check = false;
    const ops::SampleResult serial =
        ops::farthestPointSample(scene, 200, options);
    core::ThreadPool pool(8);
    const ops::SampleResult pooled =
        ops::farthestPointSample(scene, 200, options, &pool);
    EXPECT_EQ(pooled.indices, serial.indices);
    EXPECT_EQ(pooled.stats.points_visited, serial.stats.points_visited);
    EXPECT_EQ(pooled.stats.distance_computations,
              serial.stats.distance_computations);
}

TEST(GlobalOpsParallel, BallQueryMatchesSerial)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 31);
    const ops::SampleResult centers =
        ops::farthestPointSample(scene, 256);
    const ops::NeighborResult serial =
        ops::ballQuery(scene, centers.indices, 0.3f, 16);
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        core::ThreadPool pool(threads);
        const ops::NeighborResult pooled =
            ops::ballQuery(scene, centers.indices, 0.3f, 16, &pool);
        EXPECT_EQ(pooled.indices, serial.indices);
        EXPECT_EQ(pooled.counts, serial.counts);
        EXPECT_EQ(pooled.stats.distance_computations,
                  serial.stats.distance_computations);
        EXPECT_EQ(pooled.stats.iterations, serial.stats.iterations);
    }
}

TEST(GlobalOpsParallel, KnnSearchMatchesSerial)
{
    // A query chunk costs about 2^15 candidate operations: 128 known
    // points split 1024 queries into 25 chunks (partials staged on
    // the stack), 256 known points split 2048 into 98 (staged in the
    // arena).
    struct Case
    {
        std::size_t points;
        std::size_t stride;
        std::size_t k;
    };
    for (const Case c : {Case{1024, 8, 3}, Case{2048, 8, 16}}) {
        SCOPED_TRACE("points=" + std::to_string(c.points) +
                     " k=" + std::to_string(c.k));
        const data::PointCloud scene =
            data::makeS3disScene(c.points, 61);
        const std::vector<PointIdx> known =
            strideIds(c.points, c.stride);
        const ops::NeighborResult serial =
            ops::knnSearch(scene, known, scene.coords(), c.k);
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            core::ThreadPool pool(threads);
            const ops::NeighborResult pooled = ops::knnSearch(
                scene, known, scene.coords(), c.k, &pool);
            EXPECT_EQ(pooled.num_centers, serial.num_centers);
            EXPECT_EQ(pooled.k, serial.k);
            EXPECT_EQ(pooled.indices, serial.indices);
            EXPECT_EQ(pooled.counts, serial.counts);
            expectIdenticalStats(pooled.stats, serial.stats);
        }
    }
}

TEST(GlobalOpsParallel, GlobalInterpolateMatchesSerial)
{
    // Blend rows go 1024 per chunk, so the 70000-point cloud stages 69
    // blend partials (and 898 KNN partials) in the arena.
    struct Case
    {
        std::size_t points;
        std::size_t stride;
        std::size_t channels;
    };
    for (const Case c : {Case{1024, 4, 8}, Case{70000, 1000, 4}}) {
        SCOPED_TRACE("points=" + std::to_string(c.points));
        const data::PointCloud scene =
            data::makeS3disScene(c.points, 67);
        const std::vector<PointIdx> known =
            strideIds(c.points, c.stride);
        std::vector<float> features(known.size() * c.channels);
        for (std::size_t i = 0; i < features.size(); ++i)
            features[i] = static_cast<float>((i * 37) % 101) / 7.0f;
        const ops::InterpolateResult serial = ops::globalInterpolate(
            scene, features, c.channels, known);
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            core::ThreadPool pool(threads);
            const ops::InterpolateResult pooled = ops::globalInterpolate(
                scene, features, c.channels, known, 3, &pool);
            EXPECT_EQ(pooled.num_points, serial.num_points);
            EXPECT_EQ(pooled.channels, serial.channels);
            EXPECT_EQ(pooled.values, serial.values);
            expectIdenticalStats(pooled.stats, serial.stats);
        }
    }
}

// ---------------------------------------------------------------------
// Workspace overloads agree with the value APIs they back
// ---------------------------------------------------------------------

TEST(WorkspaceOverloads, OpsIntoVariantsMatchValueVariants)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 37);
    const auto partitioner = part::makePartitioner(part::Method::Fractal);
    part::PartitionConfig config;
    config.threshold = 64;
    const part::PartitionResult value_part =
        partitioner->partition(scene, config);

    core::Workspace ws;
    part::PartitionResult ws_part;
    partitioner->partitionInto(scene, config, nullptr, ws, ws_part);
    EXPECT_EQ(ws_part.tree.order(), value_part.tree.order());
    EXPECT_EQ(ws_part.tree.leaves(), value_part.tree.leaves());
    EXPECT_EQ(ws_part.stats.num_splits, value_part.stats.num_splits);
    EXPECT_EQ(ws_part.stats.elements_traversed,
              value_part.stats.elements_traversed);

    const ops::BlockSampleResult value_sampled =
        ops::blockFarthestPointSample(scene, value_part.tree, 0.25);
    ops::BlockSampleResult ws_sampled;
    ops::blockFarthestPointSample(scene, ws_part.tree, 0.25, {},
                                  nullptr, ws, ws_sampled);
    EXPECT_EQ(ws_sampled.indices, value_sampled.indices);
    EXPECT_EQ(ws_sampled.positions, value_sampled.positions);
    EXPECT_EQ(ws_sampled.leaf_offsets, value_sampled.leaf_offsets);

    const ops::NeighborResult value_grouped = ops::blockBallQuery(
        scene, value_part.tree, value_sampled, 0.3f, 8);
    ops::NeighborResult ws_grouped;
    ops::blockBallQuery(scene, ws_part.tree, ws_sampled, 0.3f, 8,
                        nullptr, ws, ws_grouped);
    EXPECT_EQ(ws_grouped.indices, value_grouped.indices);
    EXPECT_EQ(ws_grouped.counts, value_grouped.counts);

    const ops::KnnGraph value_graph =
        ops::buildBlockKnnGraph(scene, value_part.tree, 4);
    ops::KnnGraph ws_graph;
    ops::buildBlockKnnGraph(scene, ws_part.tree, 4, nullptr, ws,
                            ws_graph);
    EXPECT_EQ(ws_graph.edges, value_graph.edges);
}

TEST(WorkspaceOverloads, MakeBlockSampleIntoMatchesValue)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 41);
    const auto partitioner = part::makePartitioner(part::Method::Fractal);
    part::PartitionConfig config;
    config.threshold = 64;
    const part::PartitionResult part =
        partitioner->partition(scene, config);
    const ops::SampleResult sampled =
        ops::farthestPointSample(scene, 200);

    const ops::BlockSampleResult value =
        nn::makeBlockSample(part.tree, sampled.indices);
    core::Workspace ws;
    ops::BlockSampleResult into;
    nn::makeBlockSample(part.tree, sampled.indices, ws, into);
    EXPECT_EQ(into.indices, value.indices);
    EXPECT_EQ(into.positions, value.positions);
    EXPECT_EQ(into.leaf_offsets, value.leaf_offsets);
}

} // namespace
