/**
 * @file
 * Memory-churn bench: allocations/request and p50 latency for cold vs
 * warm workspaces.
 *
 * A global operator-new hook (binary-local) counts every heap
 * allocation, and the table contrasts three ways of running the same
 * inference request plus the serve path:
 *
 *   - value API: the historical per-call allocation behaviour (every
 *     intermediate freshly allocated),
 *   - workspace cold: first call on a fresh workspace (growth),
 *   - workspace warm: steady state — the headline row, which must
 *     report 0 allocations per request on the sequential executor,
 *   - pooled warm: the same steady state on a 2-thread pool — also
 *     0 allocations now that chunk tasks use the pool's inline task
 *     slots (no std::function closures) and parallelReduce stages
 *     per-chunk values on the stack,
 *   - serve warm: AsyncPipeline steady state via the value wait()
 *     API, where the moved-out result payload still allocates,
 *   - serve warm pooled outcome: submitShared + waitInto against the
 *     slab-recycled outcome pool — 0 allocations per request, and
 *     hard-gated (the bench exits nonzero on regression).
 *
 * The CSV is gated by scripts/check_bench_csv.sh in the Release
 * perf-smoke CI step; the latency numbers are hardware-bound and only
 * uploaded as artifacts.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "nn/models.h"
#include "nn/network.h"
#include "serve/async_pipeline.h"

// Shared counting hook replacing the global allocation operators
// binary-wide (src/common/alloc_hook.h): the same counting rules as
// the steady-state tests, so the two measurements cannot drift.
#include "common/alloc_hook.h"

namespace {

constexpr std::size_t kPoints = 2048;
constexpr int kReps = 7;

struct Sample
{
    std::uint64_t allocs = 0;
    double ms = 0.0;
};

/** Median-of-reps measurement of @p fn (allocs + wall ms). */
template <typename Fn>
Sample
measure(Fn &&fn, int reps)
{
    std::vector<std::uint64_t> allocs;
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t before = fc::heapAllocCount();
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        allocs.push_back(fc::heapAllocCount() - before);
        ms.push_back(elapsed.count());
    }
    std::sort(allocs.begin(), allocs.end());
    std::sort(ms.begin(), ms.end());
    return {allocs[allocs.size() / 2], ms[ms.size() / 2]};
}

void
churnTable()
{
    const fc::data::PointCloud &scene = fcb::scene(kPoints);
    const fc::nn::Network network(fc::nn::pointNet2SemSeg(), 42);

    fc::PipelineOptions options;
    options.num_threads = 1; // the sequential executor: zero-alloc row
    options.threshold = 256;
    const fc::FractalCloudPipeline pipeline(scene, options);

    fc::Table table({"path", "allocs/req", "p50 ms", "reps"});

    // Standalone value API: a private workspace per call, so every
    // intermediate is allocated fresh — the historical churn.
    fc::nn::BackendOptions value_backend;
    value_backend.method = options.method;
    value_backend.threshold = options.threshold;
    const Sample value = measure(
        [&] {
            const fc::nn::InferenceResult result =
                network.run(scene, value_backend);
            benchmark::DoNotOptimize(result.embedding.data().data());
        },
        kReps);
    table.addRow({"run-value", std::to_string(value.allocs),
                  fc::Table::num(value.ms), std::to_string(kReps)});

    // Workspace cold: one fresh pipeline per rep, first infer() grows
    // the workspace (the price paid exactly once per shape).
    const Sample cold = measure(
        [&] {
            const fc::FractalCloudPipeline fresh(scene, options);
            fc::nn::InferenceResult out;
            fresh.infer(network, out);
            benchmark::DoNotOptimize(out.embedding.data().data());
        },
        3);
    table.addRow({"infer-ws-cold", std::to_string(cold.allocs),
                  fc::Table::num(cold.ms), "3"});

    // Workspace warm: the steady state. allocs/req must be 0.
    fc::nn::InferenceResult warm_out;
    pipeline.infer(network, warm_out);
    pipeline.infer(network, warm_out);
    const Sample warm = measure(
        [&] {
            pipeline.infer(network, warm_out);
            benchmark::DoNotOptimize(
                warm_out.embedding.data().data());
        },
        kReps);
    table.addRow({"infer-ws-warm", std::to_string(warm.allocs),
                  fc::Table::num(warm.ms), std::to_string(kReps)});

    // Pooled warm: the same steady state on a multi-thread pool.
    // Chunk closures ride the ThreadPool's inline task slots and
    // parallelReduce stages on the stack, so pooled dispatch no
    // longer allocates task closures — allocs/req must be 0 here
    // too (the ROADMAP's "pooled dispatch still allocates" item).
    fc::PipelineOptions pooled_options = options;
    pooled_options.num_threads = 2;
    const fc::FractalCloudPipeline pooled(scene, pooled_options);
    fc::nn::InferenceResult pooled_out;
    pooled.infer(network, pooled_out);
    pooled.infer(network, pooled_out);
    const Sample pooled_warm = measure(
        [&] {
            pooled.infer(network, pooled_out);
            benchmark::DoNotOptimize(
                pooled_out.embedding.data().data());
        },
        kReps);
    table.addRow({"infer-ws-warm-pooled",
                  std::to_string(pooled_warm.allocs),
                  fc::Table::num(pooled_warm.ms),
                  std::to_string(kReps)});

    // Serve warm: pooled workspaces; only the result payload (and the
    // ticket bookkeeping) allocates per request.
    fc::serve::ServeOptions serve_options;
    serve_options.pipeline = options;
    fc::serve::AsyncPipeline server(serve_options);
    fc::BatchRequest request;
    request.network = &network;
    for (int i = 0; i < 2; ++i) { // warm the workspace pool
        fc::serve::RequestOutcome outcome =
            server.wait(server.submit(scene, request));
        benchmark::DoNotOptimize(outcome.state);
    }
    const Sample serve_warm = measure(
        [&] {
            fc::serve::RequestOutcome outcome =
                server.wait(server.submit(scene, request));
            benchmark::DoNotOptimize(
                outcome.result.gathered.values.data());
        },
        kReps);
    table.addRow({"serve-warm", std::to_string(serve_warm.allocs),
                  fc::Table::num(serve_warm.ms),
                  std::to_string(kReps)});

    // Serve warm, pooled outcome: the zero-alloc serve path. waitInto
    // copies the payload out of a slab-recycled outcome slot into a
    // caller buffer whose capacity persists across calls, so the warm
    // submit -> poll round trip performs no heap allocation at all.
    // This row is the PR's hard guarantee and is gated below.
    const auto shared_scene =
        std::make_shared<const fc::data::PointCloud>(scene);
    fc::serve::RequestOutcome pooled_outcome;
    for (int i = 0; i < 3; ++i) { // warm slot + caller buffer
        server.waitInto(server.submitShared(shared_scene, request),
                        pooled_outcome);
        benchmark::DoNotOptimize(pooled_outcome.state);
    }
    const Sample serve_pooled = measure(
        [&] {
            server.waitInto(server.submitShared(shared_scene, request),
                            pooled_outcome);
            benchmark::DoNotOptimize(
                pooled_outcome.result.gathered.values.data());
        },
        kReps);
    table.addRow({"serve-warm-pooled-outcome",
                  std::to_string(serve_pooled.allocs),
                  fc::Table::num(serve_pooled.ms),
                  std::to_string(kReps)});

    fcb::emit(table, "bench_memory_churn",
              "Heap allocations per request, cold vs warm workspaces "
              "(" + std::to_string(kPoints) + " points, seg model, " +
                  "sequential + 2-thread executors)");

    if (warm.allocs != 0)
        std::printf("WARNING: warm workspace path performed %llu "
                    "allocations per request (expected 0)\n",
                    static_cast<unsigned long long>(warm.allocs));
    if (pooled_warm.allocs != 0)
        std::printf("WARNING: pooled warm workspace path performed "
                    "%llu allocations per request (expected 0)\n",
                    static_cast<unsigned long long>(
                        pooled_warm.allocs));
    if (serve_pooled.allocs != 0) {
        // Hard gate: the pooled-outcome serve path is advertised as
        // allocation-free; a regression here fails the perf-smoke CI
        // step, not just a warning in the log.
        std::printf("FAIL: pooled-outcome serve path performed %llu "
                    "allocations per request (expected 0)\n",
                    static_cast<unsigned long long>(
                        serve_pooled.allocs));
        std::exit(1);
    }
}

/** Micro kernel: warm steady-state infer under the benchmark timer. */
void
BM_WarmWorkspaceInfer(benchmark::State &state)
{
    const fc::data::PointCloud &scene = fcb::scene(2048);
    static const fc::nn::Network network(fc::nn::pointNet2SemSeg(), 42);
    fc::PipelineOptions options;
    options.num_threads = 1;
    options.threshold = 256;
    const fc::FractalCloudPipeline pipeline(scene, options);
    fc::nn::InferenceResult out;
    pipeline.infer(network, out); // warm up
    for (auto _ : state) {
        pipeline.infer(network, out);
        benchmark::DoNotOptimize(out.embedding.data().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(scene.size()));
}
BENCHMARK(BM_WarmWorkspaceInfer);

} // namespace

FC_BENCH_MAIN(churnTable)
