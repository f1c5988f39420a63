/**
 * @file
 * Quickstart: a runnable tour of the FractalCloud library.
 *
 * Each numbered section is the minimal working form of one feature;
 * the prose lives in the docs tree:
 *
 *   docs/ARCHITECTURE.md — layer map, invariants, eager vs delayed
 *                          aggregation dataflow
 *   docs/SERVING.md      — shards, priority classes, placement keys,
 *                          /stats
 *   docs/STORAGE.md      — the .fcpc container, zero-copy loading,
 *                          prefetch ingestion
 *   docs/BENCHMARKS.md   — every bench binary and its CSV schema
 *
 * Build & run:  ./build/quickstart
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/simd.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "ops/quality.h"
#include "serve/async_pipeline.h"
#include "serve/ingest.h"
#include "serve/stats.h"
#include "storage/fcpc_reader.h"
#include "storage/fcpc_writer.h"

int
main()
{
    using namespace fc;

    // Every check below prints "bit-identical" or "DIVERGED (bug!)";
    // a DIVERGED line means an invariant broke, and makes the exit
    // status non-zero.
    bool diverged = false;
    const auto verdict = [&diverged](bool identical) {
        diverged = diverged || !identical;
        return identical ? "bit-identical" : "DIVERGED (bug!)";
    };

    // 1. Synthesize an indoor scene (S3DIS-like density contrast).
    const data::PointCloud scene = data::makeS3disScene(16384, 7);
    std::printf("scene: %zu points, %d semantic classes\n",
                scene.size(), data::kS3disNumClasses);

    // 2. Fractal partitioning. num_threads: 0 = all hardware threads,
    // 1 = sequential; results are bit-identical at every setting.
    PipelineOptions options;
    options.method = part::Method::Fractal;
    options.threshold = 256;
    options.num_threads = 0;
    FractalCloudPipeline pipeline(scene, options);

    const part::BlockTree &tree = pipeline.tree();
    std::printf("fractal: %zu blocks, depth %u, sizes [%u, %u], "
                "%u traversal passes, 0 sorts\n",
                tree.leaves().size(), tree.maxDepth(),
                tree.minLeafSize(), tree.maxLeafSize(),
                pipeline.partition().stats.traversal_passes);

    // 3. Block-parallel point operations: sample, group, gather.
    const ops::BlockSampleResult sampled = pipeline.sample(0.25);
    const ops::NeighborResult neighbors =
        pipeline.group(sampled, 0.2f, 32);
    const ops::GatherResult gathered =
        pipeline.gather(sampled, neighbors);
    std::printf("block ops: %zu samples, %zu neighbor rows, "
                "%zu gathered values\n",
                sampled.indices.size(), neighbors.num_centers,
                gathered.values.size());

    // 4. Quality and work vs exact global operations.
    const ops::SampleResult global =
        ops::farthestPointSample(scene, sampled.indices.size());
    const float cov_block =
        ops::meanCoverage(scene, sampled.indices);
    const float cov_global =
        ops::meanCoverage(scene, global.indices);
    std::printf("sampling quality: mean coverage %.4f (block) vs "
                "%.4f (global FPS) -> %.1f%% apart\n",
                cov_block, cov_global,
                100.0f * (cov_block / cov_global - 1.0f));
    std::printf("work: %llu block-wise distance evals vs %llu "
                "global (%.1fx less)\n",
                static_cast<unsigned long long>(
                    sampled.stats.distance_computations),
                static_cast<unsigned long long>(
                    global.stats.distance_computations),
                static_cast<double>(
                    global.stats.distance_computations) /
                    static_cast<double>(
                        sampled.stats.distance_computations));

    // 5. Hardware estimate on the FractalCloud accelerator model.
    const accel::RunReport report =
        pipeline.estimate(nn::pointNeXtSemSeg());
    std::printf("FractalCloud estimate (PointNeXt seg): %.2f ms, "
                "%.2f mJ (partition %.3f ms = %.2f%%)\n",
                report.totalLatencyMs(), report.totalEnergyMj(),
                report.latencyMs(accel::Phase::Partition),
                100.0 * report.latencyMs(accel::Phase::Partition) /
                    report.totalLatencyMs());

    // 6. Batched serving: the blocking wrapper over the async
    // frontend (docs/SERVING.md). Output order = input order; each
    // result is bit-identical to a sequential per-cloud run.
    std::vector<data::PointCloud> batch;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        batch.push_back(data::makeS3disScene(8192, seed));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.2f;
    request.neighbors = 32;
    const std::vector<BatchResult> results =
        FractalCloudPipeline::runBatch(batch, options, request);
    for (std::size_t i = 0; i < results.size(); ++i)
        std::printf("batch cloud %zu: %zu blocks, %zu samples, "
                    "%zu gathered values\n",
                    i, results[i].num_blocks,
                    results[i].sampled.indices.size(),
                    results[i].gathered.values.size());

    // 7. Async serving: submit/poll/wait with deadlines. The
    // deadline is generous so quickstart never prints "expired" on a
    // loaded machine; tight deadlines live in tests/test_serve.cc.
    serve::ServeOptions serve_options;
    serve_options.pipeline = options;
    serve_options.queue_capacity = 8;
    serve::AsyncPipeline server(serve_options);

    std::vector<serve::Ticket> tickets;
    for (const data::PointCloud &cloud : batch)
        tickets.push_back(
            server.submit(cloud, request, std::chrono::seconds(10)));
    std::size_t ready = 0;
    for (const serve::Ticket ticket : tickets)
        ready += server.poll(ticket); // non-blocking progress check
    std::printf("async: %zu submitted, %zu already done at first "
                "poll\n",
                tickets.size(), ready);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const serve::RequestOutcome outcome = server.wait(tickets[i]);
        const std::chrono::duration<double, std::milli> latency =
            outcome.timing.finished - outcome.timing.submitted;
        std::printf("async cloud %zu: %s in %.2f ms (%zu samples%s)\n",
                    i, serve::stateName(outcome.state),
                    latency.count(),
                    outcome.result.sampled.indices.size(),
                    outcome.spilled ? ", spilled" : "");
    }

    // 8. Threaded end-to-end inference, bit-identical to the
    // sequential path at any thread count.
    const nn::Network network(nn::pointNet2SemSeg(), 42);
    const auto infer_start = std::chrono::steady_clock::now();
    const nn::InferenceResult threaded = pipeline.infer(network);
    const std::chrono::duration<double, std::milli> infer_ms =
        std::chrono::steady_clock::now() - infer_start;

    nn::BackendOptions sequential_backend;
    sequential_backend.method = options.method;
    sequential_backend.threshold = options.threshold;
    sequential_backend.pool = nullptr; // exact sequential path
    const nn::InferenceResult sequential =
        network.run(scene, sequential_backend);
    const bool identical =
        threaded.point_features.data() ==
            sequential.point_features.data() &&
        threaded.embedding.data() == sequential.embedding.data();
    std::printf("inference: %zu points -> [%zu x %zu] features, "
                "%.1fM MACs, %.2f ms threaded, sequential replay "
                "%s\n",
                scene.size(), threaded.point_features.rows(),
                threaded.point_features.cols(),
                static_cast<double>(threaded.total_macs) / 1e6,
                infer_ms.count(),
                verdict(identical));

    // Delayed aggregation: run every set-abstraction MLP once per
    // unique point, then gather/pool features — far fewer MLP rows
    // (see docs/ARCHITECTURE.md for the dataflow and the equivalence
    // contract).
    nn::BackendOptions delayed_backend = sequential_backend;
    delayed_backend.aggregation = nn::Aggregation::Delayed;
    const nn::InferenceResult delayed =
        network.run(scene, delayed_backend);
    std::printf("delayed aggregation: %llu SA MLP rows vs %llu "
                "eager (%.1fx fewer), %.1fM vs %.1fM MACs\n",
                static_cast<unsigned long long>(delayed.sa_mlp_rows),
                static_cast<unsigned long long>(
                    sequential.sa_mlp_rows),
                static_cast<double>(sequential.sa_mlp_rows) /
                    static_cast<double>(delayed.sa_mlp_rows),
                static_cast<double>(delayed.total_macs) / 1e6,
                static_cast<double>(sequential.total_macs) / 1e6);

    // 9. The allocation-free steady state: warm same-shape infer()
    // performs zero heap allocations (proved in
    // tests/test_workspace.cc; docs/ARCHITECTURE.md, invariant 2).
    nn::InferenceResult reused;
    pipeline.infer(network, reused); // cold: grows the workspace
    const auto warm_start = std::chrono::steady_clock::now();
    pipeline.infer(network, reused); // warm: zero heap allocations
    const std::chrono::duration<double, std::milli> warm_ms =
        std::chrono::steady_clock::now() - warm_start;
    const bool reuse_identical =
        reused.point_features.data() == threaded.point_features.data();
    std::printf("workspace reuse: warm infer %.2f ms (cold %.2f ms), "
                "results %s\n",
                warm_ms.count(), infer_ms.count(),
                verdict(reuse_identical));

    // 10. Sharded, priority-aware serving: consistent-hash placement
    // keys, weighted priority classes, bounded waits
    // (docs/SERVING.md). Shard choice changes when a request runs,
    // never what it computes.
    serve::ServeOptions sharded_options;
    sharded_options.pipeline = options;
    sharded_options.num_shards = 2;
    sharded_options.queue_capacity = 16;
    serve::AsyncPipeline sharded(sharded_options);
    std::printf("sharded serving: %u shards x %u threads\n",
                sharded.numShards(), sharded.numThreads());

    constexpr std::uint64_t kSessionKey = 42; // placement affinity
    const serve::Ticket fg = sharded.submit(
        batch[0], request, std::chrono::seconds(10),
        serve::Priority::Interactive, kSessionKey);
    const serve::Ticket bg = sharded.submit(
        batch[1], request, std::chrono::seconds(10),
        serve::Priority::Background, kSessionKey);

    // waitFor does NOT cancel on timeout — the ticket stays live.
    if (auto early =
            sharded.waitFor(bg, std::chrono::milliseconds(1))) {
        std::printf("background done within 1 ms (%s)\n",
                    serve::stateName(early->state));
        (void)early;
    } else {
        std::printf("background not done after 1 ms -> still %s\n",
                    serve::stateName(sharded.state(bg)));
        const serve::RequestOutcome late = sharded.wait(bg);
        std::printf("background finished %s on shard %u (%s)\n",
                    serve::stateName(late.state), late.shard,
                    serve::priorityName(late.priority));
    }
    const serve::RequestOutcome fg_outcome = sharded.wait(fg);
    std::printf("interactive finished %s on shard %u — same shard, "
                "same session key\n",
                serve::stateName(fg_outcome.state), fg_outcome.shard);

    // 11. The SIMD kernel layer: runtime dispatch (AVX2 vs scalar;
    // force scalar with FC_FORCE_SCALAR=1). Every MLP multiplies
    // fp16-valued operands and accumulates in fp32, like the paper's
    // PE array, so a whole inference is bit-identical at both
    // dispatch levels (docs/ARCHITECTURE.md, invariant 1). Run one
    // small inference at each level, then restore the active one.
    {
        const core::simd::Level active = core::simd::activeLevel();
        const data::PointCloud small = data::makeS3disScene(1024, 3);
        core::simd::setActiveLevel(core::simd::Level::Scalar);
        const nn::InferenceResult at_scalar =
            network.run(small, sequential_backend);
        std::printf("simd: avx2 %s, active level %s",
                    core::simd::avx2Available() ? "available"
                                                : "unavailable",
                    core::simd::levelName(active));
        if (core::simd::setActiveLevel(core::simd::Level::Avx2)) {
            const nn::InferenceResult at_avx2 =
                network.run(small, sequential_backend);
            std::printf(", scalar vs avx2 inference %s",
                        verdict(at_avx2.point_features.data() ==
                                at_scalar.point_features.data()));
        }
        std::printf("\n");
        core::simd::setActiveLevel(active);
    }

    // 12. Observability: the metrics registry and the /stats export
    // (full instrument table in docs/SERVING.md).
    {
        serve::ServeOptions stats_options;
        stats_options.pipeline.num_threads = 2;
        stats_options.num_shards = 2;
        serve::AsyncPipeline observed(stats_options);
        const auto shared_scene =
            std::make_shared<const data::PointCloud>(
                data::makeS3disScene(2048, 11));
        std::vector<serve::Ticket> tickets;
        for (int i = 0; i < 4; ++i)
            tickets.push_back(observed.submitShared(
                shared_scene, {}, std::nullopt,
                i % 2 ? serve::Priority::Batch
                      : serve::Priority::Interactive,
                /*placement_key=*/static_cast<std::uint64_t>(i)));
        for (serve::Ticket t : tickets)
            (void)observed.wait(t);

        const std::string stats = serve::renderStats(observed);
        // Print the header plus a taste of the body; a real service
        // would write the whole string to its /stats socket.
        std::printf("\n/stats (%zu bytes, %zu lines):\n",
                    stats.size(),
                    static_cast<std::size_t>(std::count(
                        stats.begin(), stats.end(), '\n')));
        std::size_t shown = 0, pos = 0;
        while (shown < 6 && pos < stats.size()) {
            const std::size_t eol = stats.find('\n', pos);
            std::printf("  %.*s\n", static_cast<int>(eol - pos),
                        stats.c_str() + pos);
            pos = eol + 1;
            ++shown;
        }
        std::printf("  ... (full body includes wait/latency "
                    "histograms with p50/p95/p99 per shard+class)\n");
    }

    // 13. Storage + ingestion: the .fcpc binary columnar container
    // (docs/STORAGE.md). The file layout IS the in-memory layout, so
    // a zero-copy load is pointer binding, not parsing, and serving
    // from disk is byte-identical to serving preloaded clouds.
    {
        const std::string path = "quickstart_scratch.fcpc";
        storage::FcpcWriter writer;
        bool wrote = writer.open(path);
        for (const data::PointCloud &cloud : batch)
            wrote = wrote && writer.append(cloud);
        wrote = wrote && writer.finish();

        auto reader = std::make_shared<storage::FcpcReader>();
        if (!wrote ||
            reader->open(path) != storage::FcpcStatus::Ok) {
            std::printf("storage: scratch file failed (%s)\n",
                        storage::fcpcStatusName(reader->status()));
            std::remove(path.c_str());
            return 1;
        }
        data::PointCloud block;
        reader->readBlock(0, block); // zero-copy: aliases the mapping
        const bool bytes_match =
            block.size() == batch[0].size() &&
            std::memcmp(std::as_const(block).coords().data(),
                        std::as_const(batch[0]).coords().data(),
                        block.size() * sizeof(Vec3)) == 0;
        std::printf("storage: %zu blocks, %zu KiB %s, block 0 "
                    "aliases the file %s\n",
                    reader->blockCount(), reader->mappedBytes() / 1024,
                    reader->isMemoryMapped() ? "mmap'd"
                                             : "heap-read (fallback)",
                    verdict(bytes_match));

        // Stream every block through a fresh pipeline under each
        // block's on-disk placement key, prefetching ahead of the
        // consumer — and check the outcomes against section 6's
        // preloaded runBatch results.
        serve::AsyncPipeline ingest_server(serve_options);
        serve::StorageIngestor ingestor(ingest_server, reader);
        const std::vector<serve::IngestResult> ingested =
            ingestor.runAll(request);
        bool ingest_identical = ingested.size() == results.size();
        for (std::size_t i = 0;
             ingest_identical && i < ingested.size(); ++i)
            ingest_identical =
                ingested[i].storage_status == storage::FcpcStatus::Ok &&
                ingested[i].outcome.result.sampled.indices ==
                    results[i].sampled.indices &&
                ingested[i].outcome.result.gathered.values ==
                    results[i].gathered.values;
        const storage::PrefetchStats prefetch =
            ingestor.prefetchStats();
        std::printf("ingest: %zu blocks served from disk, prefetch "
                    "%zu hits / %zu waits, vs preloaded %s\n",
                    ingested.size(), prefetch.hits, prefetch.waits,
                    verdict(ingest_identical));
        std::remove(path.c_str());
    }
    return diverged ? 1 : 0;
}
