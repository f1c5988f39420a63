/**
 * @file
 * Shard-scaling bench for the sharded, priority-aware serving
 * runtime.
 *
 * Sweeps the executor shard count {1, 2, 4} at a fixed 2 threads per
 * shard and drives a mixed-priority workload (4 Interactive : 2
 * Batch : 1 Background per round, the shape of a service with bulk
 * traffic behind a foreground API). For every (shard count, class)
 * pair the table reports submit->terminal latency percentiles:
 *
 *   - p50/p99 per priority class: Interactive should hold the
 *     tightest tail — the weighted aging scheduler gives it an 8:4:1
 *     share of each shard under backlog — while Background trades
 *     latency for not being starved,
 *   - clouds/s per class (throughput share), and
 *   - how the tail moves as shards are added: on real multicore
 *     hardware, queue contention drops and p99 tightens; a 1-core
 *     container honestly reports ~flat.
 *
 * A locality-ablation config rides along at the widest shard count:
 * workers unpinned (pin_shards=false), isolating what NUMA pinning
 * buys on the same workload.
 *
 * Results are byte-identical at every shard count and pinned or not —
 * the sharded determinism tests enforce it — so the table measures
 * pure placement/scheduling effect. The CSV is gated by
 * scripts/check_bench_csv.sh in the Release perf-smoke CI step (12
 * rows: (3 shard counts + 1 ablation) x 3 classes); the numbers
 * themselves are hardware-bound and only uploaded as artifacts.
 */

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "serve/async_pipeline.h"

namespace {

constexpr unsigned kThreadsPerShard = 2;
constexpr std::size_t kCloudPoints = 1024;
constexpr std::size_t kMinSamplesPerClass = 24;
const unsigned kShardCounts[] = {1, 2, 4};

/** Mixed round: 4 Interactive, 2 Batch, 1 Background. */
constexpr fc::serve::Priority kRound[] = {
    fc::serve::Priority::Interactive, fc::serve::Priority::Interactive,
    fc::serve::Priority::Batch,       fc::serve::Priority::Interactive,
    fc::serve::Priority::Batch,       fc::serve::Priority::Interactive,
    fc::serve::Priority::Background,
};

fc::BatchRequest
request()
{
    fc::BatchRequest req;
    req.sample_rate = 0.25;
    req.radius = 0.2f;
    req.neighbors = 16;
    return req;
}

/** Millisecond latency at percentile @p p (nearest-rank). */
double
percentileMs(std::vector<double> &latencies, double p)
{
    std::sort(latencies.begin(), latencies.end());
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(rank, latencies.size() - 1)];
}

struct ClassMeasurement
{
    std::vector<double> latencies_ms[fc::serve::kNumPriorities];
    double wall_seconds = 0.0;
};

/** Drive mixed-priority rounds until every class has at least
 *  kMinSamplesPerClass retired requests. */
ClassMeasurement
measureShards(unsigned num_shards,
              const std::vector<fc::data::PointCloud> &clouds,
              bool pin_shards = true)
{
    fc::serve::ServeOptions options;
    options.pipeline.num_threads = kThreadsPerShard;
    options.num_shards = num_shards;
    options.queue_capacity = 64;
    options.pin_shards = pin_shards;
    fc::serve::AsyncPipeline server(options);

    ClassMeasurement measurement;
    std::size_t next_cloud = 0;
    const auto start = std::chrono::steady_clock::now();
    const auto done = [&] {
        for (const auto &lat : measurement.latencies_ms)
            if (lat.size() < kMinSamplesPerClass)
                return false;
        return true;
    };
    while (!done()) {
        std::vector<std::pair<fc::serve::Ticket, unsigned>> tickets;
        for (const fc::serve::Priority priority : kRound) {
            tickets.emplace_back(
                server.submit(clouds[next_cloud++ % clouds.size()],
                              request(), std::nullopt, priority),
                static_cast<unsigned>(priority));
        }
        for (const auto &[ticket, cls] : tickets) {
            const fc::serve::RequestOutcome outcome =
                server.wait(ticket);
            const std::chrono::duration<double, std::milli> latency =
                outcome.timing.finished - outcome.timing.submitted;
            measurement.latencies_ms[cls].push_back(latency.count());
        }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    measurement.wall_seconds = elapsed.count();
    return measurement;
}

void
shardTable()
{
    std::vector<fc::data::PointCloud> clouds;
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        clouds.push_back(
            fc::data::makeS3disScene(kCloudPoints, 400 + seed));

    fc::Table table({"shards", "priority", "p50 ms", "p99 ms",
                     "clouds/s", "n"});
    const auto addRows = [&](const std::string &label,
                             ClassMeasurement &m) {
        for (unsigned cls = 0; cls < fc::serve::kNumPriorities;
             ++cls) {
            std::vector<double> &lat = m.latencies_ms[cls];
            table.addRow(
                {label,
                 fc::serve::priorityName(
                     static_cast<fc::serve::Priority>(cls)),
                 fc::Table::num(percentileMs(lat, 0.50)),
                 fc::Table::num(percentileMs(lat, 0.99)),
                 fc::Table::num(static_cast<double>(lat.size()) /
                                m.wall_seconds),
                 std::to_string(lat.size())});
        }
    };
    for (const unsigned shards : kShardCounts) {
        ClassMeasurement m = measureShards(shards, clouds);
        addRows(std::to_string(shards), m);
    }

    // Locality ablation at the widest shard count: the same workload
    // with worker pinning off. Results stay byte-identical (the
    // locality tests enforce it); the delta these rows show is pure
    // placement effect — on single-node or 1-core hardware an honest
    // ~flat, on multi-socket hardware the cost of cross-node traffic.
    const unsigned ablate_shards =
        kShardCounts[std::size(kShardCounts) - 1];
    ClassMeasurement nopin =
        measureShards(ablate_shards, clouds, /*pin_shards=*/false);
    addRows(std::to_string(ablate_shards) + "/nopin", nopin);
    fcb::emit(table, "bench_shard_scaling",
              "Sharded serving latency per priority class, " +
                  std::to_string(kThreadsPerShard) +
                  " threads/shard (hardware threads: " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ")");
}

/** Micro kernel: submit/wait round-trip across shard counts. */
void
BM_ShardedSubmitWaitRoundtrip(benchmark::State &state)
{
    fc::serve::ServeOptions options;
    options.pipeline.num_threads = kThreadsPerShard;
    options.num_shards = static_cast<unsigned>(state.range(0));
    fc::serve::AsyncPipeline server(options);
    const fc::data::PointCloud cloud = fc::data::makeS3disScene(512, 3);
    std::uint64_t key = 0;
    for (auto _ : state) {
        // Rotate the placement key so successive requests exercise
        // different shards (and their separate queues).
        const fc::serve::RequestOutcome outcome = server.wait(
            server.submit(cloud, request(), std::nullopt,
                          fc::serve::Priority::Interactive, ++key));
        benchmark::DoNotOptimize(outcome.result.sampled.indices.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedSubmitWaitRoundtrip)->Arg(1)->Arg(2)->Arg(4);

} // namespace

FC_BENCH_MAIN(shardTable)
