/**
 * @file
 * Shard-local memory, proven:
 *
 *  - topology parsing / per-shard cpu carving (disjoint, node-major,
 *    deterministic wrap) and the FC_NO_PIN escape hatch,
 *  - served results bit-identical pinned vs unpinned across shard
 *    and thread counts,
 *  - per-shard workspace pools: creation counts stay flat per shard
 *    under pinned mixed-class load, and the foreign-return tripwire
 *    stays at zero,
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

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/sharded_executor.h"
#include "core/topology.h"
#include "dataset/s3dis.h"
#include "serve/async_pipeline.h"
#include "serve/scheduler.h"

namespace {

using namespace fc;

// ---------------------------------------------------------------------
// Topology carving
// ---------------------------------------------------------------------

core::CpuTopology
twoNodeTopology()
{
    core::CpuTopology t;
    t.nodes = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    return t;
}

TEST(ShardedLocality, DetectedTopologyIsNonEmpty)
{
    const core::CpuTopology t = core::detectCpuTopology();
    ASSERT_GE(t.nodes.size(), 1u);
    EXPECT_GE(t.cpuCount(), 1u);
    for (const std::vector<int> &node : t.nodes)
        for (const int cpu : node)
            EXPECT_GE(cpu, 0);
}

TEST(ShardedLocality, AssignmentPrefersHomeNodeAndStaysDisjoint)
{
    const auto sets =
        core::shardCpuAssignment(twoNodeTopology(), 2, 2);
    ASSERT_EQ(sets.size(), 2u);
    // Shard s prefers node s % nodes: shard 0 draws from node 0,
    // shard 1 from node 1.
    EXPECT_EQ(sets[0], (std::vector<int>{0, 1}));
    EXPECT_EQ(sets[1], (std::vector<int>{4, 5}));
}

TEST(ShardedLocality, AssignmentCoversEveryCpuOnceBeforeWrapping)
{
    const auto sets =
        core::shardCpuAssignment(twoNodeTopology(), 4, 2);
    ASSERT_EQ(sets.size(), 4u);
    std::set<int> seen;
    for (const std::vector<int> &cpus : sets) {
        ASSERT_EQ(cpus.size(), 2u);
        for (const int cpu : cpus)
            EXPECT_TRUE(seen.insert(cpu).second)
                << "cpu " << cpu << " assigned twice before the "
                << "topology was exhausted";
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(ShardedLocality, OversubscribedAssignmentWrapsDeterministically)
{
    core::CpuTopology one_node;
    one_node.nodes = {{0, 1}};
    const auto first = core::shardCpuAssignment(one_node, 2, 4);
    const auto second = core::shardCpuAssignment(one_node, 2, 4);
    EXPECT_EQ(first, second); // pure function of its inputs
    for (const std::vector<int> &cpus : first) {
        ASSERT_EQ(cpus.size(), 4u);
        for (const int cpu : cpus)
            EXPECT_TRUE(cpu == 0 || cpu == 1);
    }
}

TEST(ShardedLocality, FcNoPinDisablesPinningAtRuntime)
{
    ASSERT_EQ(::setenv("FC_NO_PIN", "1", 1), 0);
    EXPECT_TRUE(core::pinningDisabled());
    {
        core::ShardedExecutor executor(2, 1, /*standalone=*/true,
                                       /*pin_workers=*/true);
        EXPECT_FALSE(executor.pinned());
    }
    // "0" means enabled — the knob is a boolean, not mere presence.
    ASSERT_EQ(::setenv("FC_NO_PIN", "0", 1), 0);
    EXPECT_FALSE(core::pinningDisabled());
    ASSERT_EQ(::unsetenv("FC_NO_PIN"), 0);
    EXPECT_FALSE(core::pinningDisabled());
    {
        core::ShardedExecutor executor(2, 1, /*standalone=*/true,
                                       /*pin_workers=*/true);
        EXPECT_TRUE(executor.pinned());
    }
    core::ShardedExecutor unpinned(2, 1, /*standalone=*/true,
                                   /*pin_workers=*/false);
    EXPECT_FALSE(unpinned.pinned());
}

// ---------------------------------------------------------------------
// Pinning never changes results
// ---------------------------------------------------------------------

TEST(ShardedLocality, ServedResultsIdenticalAcrossPinningShardsThreads)
{
    const data::PointCloud scene = data::makeS3disScene(2048, 31);
    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.3f;
    request.neighbors = 8;

    PipelineOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.threshold = 64;
    const std::vector<BatchResult> baseline =
        FractalCloudPipeline::runBatch({scene}, reference_options,
                                       request);
    ASSERT_EQ(baseline.size(), 1u);

    const auto cloud =
        std::make_shared<const data::PointCloud>(scene);
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const bool pin : {true, false}) {
            for (const unsigned threads : {1u, 2u, 8u}) {
                SCOPED_TRACE("shards=" + std::to_string(shards) +
                             " pin=" + std::to_string(pin) +
                             " threads=" + std::to_string(threads));
                serve::ServeOptions options;
                options.pipeline.num_threads = threads;
                options.pipeline.threshold = 64;
                options.num_shards = shards;
                options.pin_shards = pin;
                serve::AsyncPipeline server(options);
                // Distinct placement keys spread the requests over
                // shards; results must not care where they land.
                for (std::uint64_t key : {7ull, 8ull, 9ull}) {
                    serve::RequestOutcome outcome;
                    server.waitInto(
                        server.submitShared(cloud, request,
                                            std::nullopt,
                                            serve::Priority::Interactive,
                                            key),
                        outcome);
                    ASSERT_EQ(outcome.state,
                              serve::RequestState::Done);
                    EXPECT_EQ(outcome.result.sampled.indices,
                              baseline[0].sampled.indices);
                    EXPECT_EQ(outcome.result.grouped.indices,
                              baseline[0].grouped.indices);
                    EXPECT_EQ(outcome.result.gathered.values,
                              baseline[0].gathered.values);
                }
            }
        }
    }
}

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
    options.pin_shards = true;
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
        /*queue_capacity=*/8, /*num_threads=*/1,
        /*work_conserving=*/true, /*num_shards=*/1, &registry, bounds);

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
