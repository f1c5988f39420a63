/**
 * @file
 * Eager vs delayed set-abstraction execution (nn::Aggregation).
 *
 * For each Table I model the table reports both execution orders on
 * the same scene: end-to-end latency, the number of rows fed to the
 * SA MLPs (the delayed order's whole point — unique input points
 * instead of gathered (center, neighbor) pairs), total MACs, and the
 * derived row-reduction and speedup factors.
 *
 * The row counts are hardware-independent, so the binary doubles as
 * a correctness gate: it exits non-zero if any model's delayed run
 * does not execute strictly fewer SA MLP rows than its eager run.
 * Wall-clock speedup is machine-dependent and NOT gated: it moves
 * with core count, cache sizes and SIMD level; the row counts do not.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "nn/models.h"
#include "nn/network.h"

namespace {

constexpr std::size_t kScenePoints = 4096;

/** Best-of-reps wall seconds for @p fn. */
template <typename Fn>
double
bestSeconds(Fn &&fn, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

void
delayedTable()
{
    const fc::data::PointCloud &scene = fcb::scene(kScenePoints);

    struct ModelRow
    {
        const char *name;
        fc::nn::ModelConfig config;
    };
    const ModelRow models[] = {
        {"pointnet2-cls", fc::nn::pointNet2Classification()},
        {"pointnet2-semseg", fc::nn::pointNet2SemSeg()},
        {"pointnext-semseg", fc::nn::pointNeXtSemSeg()},
    };

    fc::Table table({"model", "aggregation", "ms", "sa_mlp_rows",
                     "Mmacs", "row_reduction", "speedup"});
    bool rows_ok = true;
    for (const ModelRow &model : models) {
        const fc::nn::Network net(model.config, 42);
        double eager_s = 0.0;
        std::uint64_t eager_rows = 0;

        for (const fc::nn::Aggregation mode :
             {fc::nn::Aggregation::Eager,
              fc::nn::Aggregation::Delayed}) {
            fc::nn::BackendOptions backend;
            backend.method = fc::part::Method::Fractal;
            backend.threshold = 256;
            backend.aggregation = mode;

            fc::nn::InferenceResult result;
            const double seconds = bestSeconds(
                [&] {
                    result = net.run(scene, backend);
                    benchmark::DoNotOptimize(
                        result.embedding.data().data());
                },
                2);

            const bool eager = mode == fc::nn::Aggregation::Eager;
            if (eager) {
                eager_s = seconds;
                eager_rows = result.sa_mlp_rows;
            } else if (result.sa_mlp_rows >= eager_rows) {
                rows_ok = false;
            }
            table.addRow(
                {model.name, eager ? "eager" : "delayed",
                 fc::Table::num(seconds * 1e3),
                 std::to_string(result.sa_mlp_rows),
                 fc::Table::num(
                     static_cast<double>(result.total_macs) / 1e6),
                 eager ? "1x"
                       : fc::Table::mult(
                             static_cast<double>(eager_rows) /
                             static_cast<double>(result.sa_mlp_rows)),
                 eager ? "1x" : fc::Table::mult(eager_s / seconds)});
        }
    }
    fcb::emit(table, "bench_delayed_aggregation",
              "Eager vs delayed aggregation (unique-point MLPs before "
              "grouping), " +
                  std::to_string(kScenePoints) + "-point scene");
    if (!rows_ok) {
        std::fprintf(stderr,
                     "FAIL: delayed aggregation did not execute "
                     "strictly fewer SA MLP rows than eager\n");
        std::exit(1);
    }
}

/** Micro kernel: one end-to-end delayed inference. */
void
BM_DelayedInfer(benchmark::State &state)
{
    const fc::data::PointCloud &scene = fcb::scene(2048);
    static const fc::nn::Network net(fc::nn::pointNet2SemSeg(), 42);
    fc::nn::BackendOptions backend;
    backend.method = fc::part::Method::Fractal;
    backend.threshold = 256;
    backend.aggregation = state.range(0) == 0
                              ? fc::nn::Aggregation::Eager
                              : fc::nn::Aggregation::Delayed;
    for (auto _ : state) {
        const fc::nn::InferenceResult result = net.run(scene, backend);
        benchmark::DoNotOptimize(result.embedding.data().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(scene.size()));
}
BENCHMARK(BM_DelayedInfer)->Arg(0)->Arg(1);

} // namespace

FC_BENCH_MAIN(delayedTable)
