/**
 * @file
 * Tests for the sharded, priority-aware serving runtime:
 * core::ShardMap placement (ShardedPlacement), shard-count
 * determinism of served results (byte-identical to the unsharded
 * path at shard counts {1,2,4} x thread counts {1,2,8}), weighted
 * priority aging (no starvation under sustained Interactive load),
 * cancellation of queued low-priority tickets, cross-shard
 * work-conserving spill, and the waitFor timeout overload. The CI
 * TSan job runs this whole file (via the Sharded*, Priority*, and
 * WaitFor* filter entries).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.h"
#include "core/shard_map.h"
#include "dataset/s3dis.h"
#include "serve/async_pipeline.h"
#include "serve/scheduler.h"

namespace fc {
namespace {

using serve::AsyncPipeline;
using serve::Priority;
using serve::RequestOutcome;
using serve::RequestState;
using serve::Scheduler;
using serve::ServeOptions;
using serve::Stage;
using serve::Ticket;

std::shared_ptr<const data::PointCloud>
sharedScene(std::size_t n, std::uint64_t seed)
{
    return std::make_shared<const data::PointCloud>(
        data::makeS3disScene(n, seed));
}

/** Smallest key >= @p from that the map places on @p shard. */
std::uint64_t
keyOnShard(const core::ShardMap &map, unsigned shard,
           std::uint64_t from = 1)
{
    for (std::uint64_t key = from;; ++key) {
        if (map.shardFor(key) == shard)
            return key;
    }
}

/** One-shot gate: a worker parks in arriveAndWait() until release(). */
struct StageGate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool reached = false;
    bool released = false;

    void
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        reached = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
    }

    void
    awaitReached()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return reached; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
        cv.notify_all();
    }
};

// ---------------------------------------------------- ShardedPlacement

TEST(ShardedPlacement, SingleShardMapsEveryKeyToZero)
{
    const core::ShardMap map(1);
    for (std::uint64_t key = 0; key < 1000; ++key)
        EXPECT_EQ(map.shardFor(key), 0u);
}

TEST(ShardedPlacement, PlacementIsDeterministicAndBalanced)
{
    constexpr unsigned kShards = 4;
    constexpr std::uint64_t kKeys = 20000;
    const core::ShardMap a(kShards);
    const core::ShardMap b(kShards);

    std::vector<std::size_t> hits(kShards, 0);
    for (std::uint64_t key = 1; key <= kKeys; ++key) {
        const unsigned shard = a.shardFor(key);
        ASSERT_LT(shard, kShards);
        // Pure function of (key, shard count): identical across
        // instances (and therefore across scheduler and executor).
        EXPECT_EQ(shard, b.shardFor(key));
        ++hits[shard];
    }
    // Consistent hashing with 64 replicas is not perfectly uniform,
    // but no shard may be starved or dominant.
    for (unsigned s = 0; s < kShards; ++s) {
        EXPECT_GT(hits[s], kKeys / 20) << "shard " << s << " starved";
        EXPECT_LT(hits[s], kKeys / 2) << "shard " << s << " dominant";
    }
}

TEST(ShardedPlacement, GrowingTheRingMovesFewKeys)
{
    constexpr std::uint64_t kKeys = 20000;
    const core::ShardMap small(4);
    const core::ShardMap big(5);
    std::uint64_t moved = 0;
    for (std::uint64_t key = 1; key <= kKeys; ++key) {
        const unsigned before = small.shardFor(key);
        const unsigned after = big.shardFor(key);
        if (before != after) {
            ++moved;
            // Consistency: a key only ever moves TO the new shard —
            // shards 0-3 own the same ring points in both maps.
            EXPECT_EQ(after, 4u);
        }
    }
    // Expected ~1/5 of keys; anything under half proves the ring is
    // consistent rather than rehash-everything.
    EXPECT_LT(moved, kKeys / 2);
    EXPECT_GT(moved, 0u);
}

// ------------------------------------------------------- ShardedServe

/** Blocking-path baseline for one cloud (sequential pipeline). */
BatchResult
blockingBaseline(const data::PointCloud &cloud,
                 const BatchRequest &request)
{
    PipelineOptions options;
    options.num_threads = 1;
    const FractalCloudPipeline pipeline(cloud, options);
    BatchResult out;
    out.sampled = pipeline.sample(request.sample_rate);
    out.grouped =
        pipeline.group(out.sampled, request.radius, request.neighbors);
    out.gathered = pipeline.gather(out.sampled, out.grouped);
    out.partition_stats = pipeline.partition().stats;
    out.num_blocks = pipeline.tree().leaves().size();
    return out;
}

void
expectResultsIdentical(const BatchResult &a, const BatchResult &b)
{
    EXPECT_EQ(a.sampled.indices, b.sampled.indices);
    EXPECT_EQ(a.sampled.positions, b.sampled.positions);
    EXPECT_EQ(a.sampled.leaf_offsets, b.sampled.leaf_offsets);
    EXPECT_EQ(a.grouped.indices, b.grouped.indices);
    EXPECT_EQ(a.grouped.counts, b.grouped.counts);
    // Bit-exact float comparison is intentional: shard placement and
    // spill scheduling must not change a single operation.
    EXPECT_EQ(a.gathered.values, b.gathered.values);
    EXPECT_EQ(a.num_blocks, b.num_blocks);
    EXPECT_EQ(a.partition_stats.num_splits, b.partition_stats.num_splits);
}

TEST(ShardedServe, ResultsIdenticalAcrossShardAndThreadCounts)
{
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 300; seed < 304; ++seed)
        clouds.push_back(data::makeS3disScene(1024, seed));

    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.25f;
    request.neighbors = 16;

    std::vector<BatchResult> baseline;
    for (const data::PointCloud &cloud : clouds)
        baseline.push_back(blockingBaseline(cloud, request));

    const Priority classes[] = {Priority::Interactive, Priority::Batch,
                                Priority::Background};
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("shards=" + std::to_string(shards) +
                         " threads=" + std::to_string(threads));
            ServeOptions options;
            options.pipeline.num_threads = threads;
            options.num_shards = shards;
            options.queue_capacity = clouds.size();
            AsyncPipeline server(options);
            EXPECT_EQ(server.numShards(), shards);
            EXPECT_EQ(server.numThreads(), threads);

            std::vector<Ticket> tickets;
            for (std::size_t i = 0; i < clouds.size(); ++i) {
                // Mix priority classes: the class may reorder
                // execution but never the per-request bytes.
                tickets.push_back(server.submit(
                    clouds[i], request, std::nullopt, classes[i % 3]));
            }
            for (std::size_t i = 0; i < tickets.size(); ++i) {
                const RequestOutcome outcome = server.wait(tickets[i]);
                ASSERT_EQ(outcome.state, RequestState::Done)
                    << outcome.error;
                EXPECT_LT(outcome.shard, shards);
                EXPECT_EQ(outcome.priority, classes[i % 3]);
                expectResultsIdentical(outcome.result, baseline[i]);
            }
        }
    }
}

TEST(ShardedServe, PlacementKeyPinsRequestsToOneShard)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.num_shards = 4;
    options.queue_capacity = 16;
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(512, 310);
    constexpr std::uint64_t kSessionKey = 0xfeedface;

    std::vector<Ticket> tickets;
    for (int i = 0; i < 6; ++i)
        tickets.push_back(server.submit(cloud, {}, std::nullopt,
                                        Priority::Interactive,
                                        kSessionKey));
    const unsigned expected =
        core::ShardMap(4).shardFor(kSessionKey);
    for (const Ticket t : tickets) {
        const RequestOutcome outcome = server.wait(t);
        ASSERT_EQ(outcome.state, RequestState::Done);
        EXPECT_EQ(outcome.shard, expected)
            << "equal placement keys must land on one shard";
    }
}

TEST(ShardedServe, CrossShardSpillBorrowsIdleNeighbor)
{
    // 2 shards x 2 threads at the scheduler level. Shard 0 is
    // saturated (3 requests in flight >= 2 threads) while shard 1 is
    // fully idle: the acquired request must borrow shard 1's pool
    // for its block items.
    Scheduler scheduler(/*queue_capacity=*/16, /*num_threads=*/2,
                        /*num_shards=*/2);
    const core::ShardMap map(2);
    const std::uint64_t key0 = keyOnShard(map, 0);
    const auto cloud = sharedScene(64, 311);

    std::vector<Ticket> tickets;
    for (int i = 0; i < 3; ++i)
        tickets.push_back(*scheduler.trySubmit(
            cloud, {}, std::nullopt, Priority::Interactive, key0));
    EXPECT_EQ(scheduler.queuedCount(0), 3u);
    EXPECT_EQ(scheduler.queuedCount(1), 0u);

    const auto job = scheduler.acquire(0);
    ASSERT_TRUE(job);
    EXPECT_EQ(job->shard, 0u);
    EXPECT_EQ(job->spill_shard, 1)
        << "idle neighbor shard must be borrowed";

    // Drain the rest: with 2 still in flight on shard 0 (== its
    // thread count) the second request keeps borrowing shard 1; the
    // last one, alone on its shard, spills to the home pool.
    scheduler.complete(job->id);
    const auto second = scheduler.acquire(0);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->spill_shard, 1);
    scheduler.complete(second->id);
    const auto third = scheduler.acquire(0);
    ASSERT_TRUE(third);
    EXPECT_EQ(third->spill_shard, 0);
    scheduler.complete(third->id);
    for (const Ticket t : tickets)
        EXPECT_TRUE(scheduler.wait(t).spilled);
}

TEST(ShardedServe, RunBatchUnchangedByShardedRuntime)
{
    // The blocking wrapper (now defined in serve/run_batch.cc) keeps
    // its exact semantics: output order == input order, results
    // bit-identical to sequential pipelines.
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 320; seed < 323; ++seed)
        clouds.push_back(data::makeS3disScene(768, seed));
    BatchRequest request;
    request.neighbors = 16;

    PipelineOptions options;
    options.num_threads = 2;
    const std::vector<BatchResult> batch =
        FractalCloudPipeline::runBatch(clouds, options, request);
    ASSERT_EQ(batch.size(), clouds.size());
    for (std::size_t i = 0; i < clouds.size(); ++i)
        expectResultsIdentical(batch[i],
                               blockingBaseline(clouds[i], request));
}

// -------------------------------------------------- PriorityScheduling

TEST(PriorityScheduling, BackloggedClassesShareByWeight)
{
    // Single shard, all three classes backlogged. The aging credits
    // must interleave classes roughly 8:4:1 — and strictly FIFO
    // within each class.
    Scheduler scheduler(/*queue_capacity=*/64, /*num_threads=*/1);
    const auto cloud = sharedScene(64, 330);

    std::map<std::uint64_t, Priority> submitted;
    for (int i = 0; i < 8; ++i) {
        for (const Priority p :
             {Priority::Interactive, Priority::Batch,
              Priority::Background}) {
            const auto t =
                scheduler.trySubmit(cloud, {}, std::nullopt, p);
            ASSERT_TRUE(t);
            submitted[t->id] = p;
        }
    }

    std::vector<Priority> order;
    std::map<Priority, std::vector<std::uint64_t>> per_class_ids;
    for (std::size_t i = 0; i < submitted.size(); ++i) {
        const auto job = scheduler.acquire(0);
        ASSERT_TRUE(job);
        const Priority p = submitted.at(job->id);
        order.push_back(p);
        per_class_ids[p].push_back(job->id);
        scheduler.complete(job->id);
    }

    // FIFO within each class.
    for (const auto &[p, ids] : per_class_ids) {
        EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()))
            << "class " << serve::priorityName(p)
            << " must pop in admission order";
        EXPECT_EQ(ids.size(), 8u);
    }

    // The first pop goes to the most interactive class, and while
    // all classes are backlogged (first 14 pops: Background still
    // has >= 1 queued afterwards), Interactive must lead Batch must
    // lead Background in pop counts.
    EXPECT_EQ(order.front(), Priority::Interactive);
    std::map<Priority, int> counts;
    for (std::size_t i = 0; i < 14; ++i)
        ++counts[order[i]];
    EXPECT_GT(counts[Priority::Interactive], counts[Priority::Batch]);
    EXPECT_GE(counts[Priority::Batch], counts[Priority::Background]);
    EXPECT_GE(counts[Priority::Background], 1)
        << "aging must pull Background forward under backlog";

    for (const auto &[id, p] : submitted)
        EXPECT_EQ(scheduler.wait(Ticket{id}).priority, p);
}

TEST(PriorityScheduling, BackgroundNotStarvedUnderInteractiveLoad)
{
    // One worker; the first request parks at its Started boundary
    // while one Background and 20 Interactive requests queue behind
    // it. Under 8:1 weighted aging the Background request must start
    // within ~9 pops — never after the whole Interactive backlog.
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 32;
    StageGate gate;
    std::mutex order_mutex;
    std::vector<std::uint64_t> started_order;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (stage != Stage::Started)
            return;
        {
            std::lock_guard<std::mutex> lock(order_mutex);
            started_order.push_back(t.id);
        }
        if (t.id == 1)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(256, 331);
    const Ticket first = server.submit(cloud, {});
    gate.awaitReached();

    const Ticket background = server.submit(
        cloud, {}, std::nullopt, Priority::Background);
    std::vector<Ticket> interactive;
    for (int i = 0; i < 20; ++i)
        interactive.push_back(server.submit(cloud, {}, std::nullopt,
                                            Priority::Interactive));
    gate.release();

    EXPECT_EQ(server.wait(first).state, RequestState::Done);
    const RequestOutcome bg = server.wait(background);
    EXPECT_EQ(bg.state, RequestState::Done);
    EXPECT_EQ(bg.priority, Priority::Background);
    std::size_t done_after_bg = 0;
    for (const Ticket t : interactive) {
        const RequestOutcome outcome = server.wait(t);
        EXPECT_EQ(outcome.state, RequestState::Done);
        if (outcome.timing.started > bg.timing.started)
            ++done_after_bg;
    }

    // The whole backlog was queued before the gate released, so the
    // single worker popped it in one deterministic aging sequence:
    // 8 Interactive pops (credit 8 each) before Background's credit
    // (1/pop) exceeds them at pop 9.
    std::lock_guard<std::mutex> lock(order_mutex);
    const auto it = std::find(started_order.begin(),
                              started_order.end(), background.id);
    ASSERT_NE(it, started_order.end());
    const std::size_t position =
        static_cast<std::size_t>(it - started_order.begin());
    EXPECT_GE(position, 2u) << "weights must favor Interactive first";
    EXPECT_LE(position, 10u) << "aging must bound Background's wait";
    EXPECT_GE(done_after_bg, 10u)
        << "most of the Interactive backlog should start after the "
           "aged Background request";
}

TEST(PriorityScheduling, CancelQueuedBackgroundTickets)
{
    // Queued low-priority tickets are retired unrun when cancelled,
    // even while higher classes keep the shard busy.
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 16;
    StageGate gate;
    std::atomic<int> background_started{0};
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
        if (t.id > 1 && stage == Stage::Started)
            background_started.fetch_add(1);
    };
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(256, 332);
    const Ticket running = server.submit(cloud, {});
    gate.awaitReached();

    std::vector<Ticket> background;
    for (int i = 0; i < 4; ++i)
        background.push_back(server.submit(
            cloud, {}, std::nullopt, Priority::Background));
    for (const Ticket t : background)
        EXPECT_TRUE(server.cancel(t));
    gate.release();

    EXPECT_EQ(server.wait(running).state, RequestState::Done);
    for (const Ticket t : background) {
        const RequestOutcome outcome = server.wait(t);
        EXPECT_EQ(outcome.state, RequestState::Cancelled);
        EXPECT_TRUE(outcome.result.sampled.indices.empty());
    }
    EXPECT_EQ(background_started.load(), 0)
        << "cancelled queued Background tickets must never run";
    EXPECT_EQ(server.liveRecordCount(), 0u);
}

// ------------------------------------------------------------- WaitFor

TEST(WaitFor, TimesOutWhileQueuedWithoutCancelling)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 4;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const data::PointCloud cloud = data::makeS3disScene(512, 340);
    const Ticket running = server.submit(cloud, {});
    gate.awaitReached();
    const Ticket queued = server.submit(cloud, {});

    // Bounded wait on queued work: expires without consuming the
    // ticket or cancelling the request.
    const auto blocked =
        server.waitFor(queued, std::chrono::milliseconds(50));
    EXPECT_FALSE(blocked.has_value());
    EXPECT_EQ(server.state(queued), RequestState::Queued);

    gate.release();
    const auto outcome =
        server.waitFor(queued, std::chrono::seconds(60));
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, RequestState::Done);
    EXPECT_EQ(server.wait(running).state, RequestState::Done);
}

TEST(WaitFor, TimesOutWhileRunningThenCollects)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Partitioned)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const Ticket t = server.submit(data::makeS3disScene(512, 341), {});
    gate.awaitReached();
    EXPECT_EQ(server.state(t), RequestState::Running);

    const auto blocked =
        server.waitFor(t, std::chrono::milliseconds(50));
    EXPECT_FALSE(blocked.has_value());
    EXPECT_EQ(server.state(t), RequestState::Running)
        << "a timed-out waitFor must not cancel the request";

    gate.release();
    const auto outcome = server.waitFor(t, std::chrono::seconds(60));
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, RequestState::Done);
    EXPECT_FALSE(outcome->result.sampled.indices.empty());
}

TEST(WaitFor, ReturnsImmediatelyOnTerminalTickets)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    AsyncPipeline server(options);
    const Ticket t = server.submit(data::makeS3disScene(512, 342), {});
    while (!server.poll(t))
        std::this_thread::yield();
    const auto outcome =
        server.waitFor(t, std::chrono::milliseconds(0));
    ASSERT_TRUE(outcome.has_value()) << "terminal outcome must be "
                                        "returned even with a zero "
                                        "timeout";
    EXPECT_EQ(outcome->state, RequestState::Done);
    EXPECT_EQ(server.liveRecordCount(), 0u);
}

} // namespace
} // namespace fc
