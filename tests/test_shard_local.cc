/**
 * @file
 * Shard-local memory, proven:
 *
 *  - per-shard workspace pools: creation counts stay flat per shard
 *    under mixed-class load, and the foreign-return tripwire stays at
 *    zero,
 *  - result payloads kept in recycled scheduler records: waitInto ==
 *    wait byte for byte, a reused record never aliases a consumed
 *    result, and the records created stay bounded by the tickets live
 *    at once (queued, running, or done and not yet consumed), and
 *  - per-class admission bounds reject exactly the bounded class.
 *
 * Suite names (ShardedLocality, AsyncPipelineOutcome,
 * SchedulerClassCapacity) are chosen to ride the CI TSan filter's
 * existing Sharded* / AsyncPipeline.* / Scheduler.* globs.
 */

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "dataset/s3dis.h"
#include "serve/async_pipeline.h"
#include "serve/scheduler.h"

namespace {

using namespace fc;

// ---------------------------------------------------------------------
// Per-shard workspace pools
// ---------------------------------------------------------------------

TEST(ShardedLocality, WorkspacesStayFlatPerShardUnderMixedClassLoad)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(1024, 37));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    options.num_shards = 2;
    serve::AsyncPipeline server(options);

    static constexpr serve::Priority kClasses[3] = {
        serve::Priority::Interactive, serve::Priority::Batch,
        serve::Priority::Background};
    const auto round = [&] {
        for (std::uint64_t key = 1; key <= 8; ++key) {
            const serve::Ticket ticket = server.submitShared(
                cloud, request, std::nullopt, kClasses[key % 3], key);
            ASSERT_EQ(server.wait(ticket).state,
                      serve::RequestState::Done);
        }
    };
    round(); // warm every shard's pool
    std::vector<std::size_t> created;
    for (unsigned s = 0; s < server.numShards(); ++s)
        created.push_back(server.workspacesCreated(s));
    round();
    round();
    for (unsigned s = 0; s < server.numShards(); ++s) {
        SCOPED_TRACE("shard=" + std::to_string(s));
        // Flat per shard: steady per-shard concurrency never creates
        // another workspace, proving checkouts stay on their shard.
        EXPECT_EQ(server.workspacesCreated(s), created[s]);
        EXPECT_LE(server.workspacesCreated(s), server.numThreads());
        EXPECT_EQ(server.metrics()
                      .counter("serve.workspace.foreign_return{shard=" +
                               std::to_string(s) + "}")
                      .value(),
                  0u);
    }
}

// ---------------------------------------------------------------------
// Outcome pool
// ---------------------------------------------------------------------

TEST(AsyncPipelineOutcome, WaitIntoMatchesValueWaitByteForByte)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(1024, 43));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 2;
    options.pipeline.threshold = 64;
    serve::AsyncPipeline server(options);

    const serve::RequestOutcome value =
        server.wait(server.submitShared(cloud, request));
    ASSERT_EQ(value.state, serve::RequestState::Done);

    serve::RequestOutcome into;
    server.waitInto(server.submitShared(cloud, request), into);
    ASSERT_EQ(into.state, serve::RequestState::Done);
    EXPECT_EQ(into.result.sampled.indices, value.result.sampled.indices);
    EXPECT_EQ(into.result.grouped.indices, value.result.grouped.indices);
    EXPECT_EQ(into.result.gathered.values, value.result.gathered.values);
    EXPECT_EQ(into.result.num_blocks, value.result.num_blocks);

    // Dirty reuse: waitInto into the same outcome again (different
    // request shape) must fully overwrite it.
    BatchRequest wider = request;
    wider.neighbors = 4;
    server.waitInto(server.submitShared(cloud, wider), into);
    ASSERT_EQ(into.state, serve::RequestState::Done);
    EXPECT_NE(into.result.grouped.indices, value.result.grouped.indices);
}

TEST(AsyncPipelineOutcome, RecycledSlotsNeverAliasALiveResult)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(1024, 47));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    serve::AsyncPipeline server(options);

    serve::RequestOutcome first;
    server.waitInto(server.submitShared(cloud, request), first);
    ASSERT_EQ(first.state, serve::RequestState::Done);
    const auto sampled_snapshot = first.result.sampled.indices;
    const auto gathered_snapshot = first.result.gathered.values;

    // The next request reuses the same scheduler record and writes a
    // different shape into its payload; the consumed outcome must not
    // change (waitInto swapped the payload out, so nothing aliases
    // it).
    BatchRequest other = request;
    other.sample_rate = 0.5;
    other.neighbors = 4;
    serve::RequestOutcome second;
    server.waitInto(server.submitShared(cloud, other), second);
    ASSERT_EQ(second.state, serve::RequestState::Done);
    EXPECT_EQ(first.result.sampled.indices, sampled_snapshot);
    EXPECT_EQ(first.result.gathered.values, gathered_snapshot);

    // Sequential traffic reuses one scheduler record.
    EXPECT_EQ(server.outcomeSlotsCreated(), 1u);
}

TEST(AsyncPipelineOutcome, SlotCountBoundedByUnconsumedTickets)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(512, 53));
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    serve::ServeOptions options;
    options.pipeline.num_threads = 2;
    options.pipeline.threshold = 64;
    serve::AsyncPipeline server(options);

    // Hold several tickets unconsumed: a ticket keeps its scheduler
    // record while it is queued, running, or done and not yet
    // consumed, so records are created to cover them — and no more.
    std::vector<serve::Ticket> held;
    for (int i = 0; i < 6; ++i)
        held.push_back(server.submitShared(cloud, request));
    for (const serve::Ticket ticket : held)
        ASSERT_EQ(server.wait(ticket).state,
                  serve::RequestState::Done);
    const std::size_t peak = server.outcomeSlotsCreated();
    EXPECT_GE(peak, 1u);
    EXPECT_LE(peak, 6u);

    // Consumed promptly, tickets reuse the reclaimed records.
    for (int i = 0; i < 20; ++i) {
        serve::RequestOutcome out;
        server.waitInto(server.submitShared(cloud, request), out);
        ASSERT_EQ(out.state, serve::RequestState::Done);
    }
    EXPECT_EQ(server.outcomeSlotsCreated(), peak);

    // Discarded tickets give their records back too.
    for (int i = 0; i < 4; ++i)
        server.discard(server.submitShared(cloud, request));
    while (server.liveRecordCount() != 0 ||
           server.runningCount() != 0 || server.queuedCount() != 0)
        std::this_thread::yield();
    EXPECT_EQ(server.outcomeSlotsCreated(), peak);
}

// ---------------------------------------------------------------------
// Per-class admission bounds
// ---------------------------------------------------------------------

TEST(SchedulerClassCapacity, BoundsRejectOnlyTheBoundedClass)
{
    const auto cloud = std::make_shared<const data::PointCloud>(
        data::makeS3disScene(128, 59));
    BatchRequest request;
    request.neighbors = 8;

    core::metrics::Registry registry;
    std::array<std::size_t, serve::kNumPriorities> bounds{};
    bounds[static_cast<unsigned>(serve::Priority::Background)] = 1;
    serve::Scheduler scheduler(
        /*queue_capacity=*/8, /*num_threads=*/1, /*num_shards=*/1,
        &registry, bounds);

    const auto admit = [&](serve::Priority priority) {
        return scheduler.trySubmit(cloud, request, std::nullopt,
                                   priority);
    };
    const auto bg1 = admit(serve::Priority::Background);
    ASSERT_TRUE(bg1.has_value());
    // Second Background bounces off its class bound...
    EXPECT_FALSE(admit(serve::Priority::Background).has_value());
    EXPECT_EQ(registry
                  .counter("serve.rejected_class{class=background}")
                  .value(),
              1u);
    // ...while the unbounded classes sail through.
    const auto i1 = admit(serve::Priority::Interactive);
    const auto b1 = admit(serve::Priority::Batch);
    ASSERT_TRUE(i1.has_value());
    ASSERT_TRUE(b1.has_value());
    EXPECT_EQ(registry
                  .counter("serve.rejected_class{class=interactive}")
                  .value(),
              0u);

    // Draining the Background request frees its class allowance.
    // (Weighted aging pops Interactive and Batch first.)
    for (int i = 0; i < 3; ++i) {
        const auto job = scheduler.acquire(0);
        ASSERT_TRUE(job.has_value());
        scheduler.complete(job->id);
    }
    const auto bg2 = admit(serve::Priority::Background);
    ASSERT_TRUE(bg2.has_value());

    // Retire everything so the scheduler can be destroyed cleanly.
    const auto last = scheduler.acquire(0);
    ASSERT_TRUE(last.has_value());
    scheduler.complete(last->id);
    for (const auto &ticket : {bg1, i1, b1, bg2})
        scheduler.discard(*ticket);
}

TEST(SchedulerClassCapacity, ServePipelineSurfacesTheKnob)
{
    serve::ServeOptions options;
    options.pipeline.num_threads = 1;
    options.pipeline.threshold = 64;
    options.class_capacity[static_cast<unsigned>(
        serve::Priority::Background)] = 2;
    serve::AsyncPipeline server(options);
    EXPECT_EQ(server.metrics()
                  .gauge("serve.class_capacity{class=background}")
                  .value(),
              2);
    EXPECT_EQ(server.metrics()
                  .gauge("serve.class_capacity{class=interactive}")
                  .value(),
              0);
}

} // namespace
