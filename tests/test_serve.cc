/**
 * @file
 * Tests for the async serving frontend: Scheduler protocol (FIFO
 * admission, capacity, deadlines, cancellation, work-conserving
 * spill) and AsyncPipeline end-to-end behavior — submit/poll/wait
 * determinism against the blocking path at 1/2/8 threads, deadline
 * expiry, admission-queue rejection, cancellation mid-flight, and a
 * concurrent stress run (the CI TSan job executes this whole file).
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <gtest/gtest.h>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/pipeline.h"
#include "dataset/s3dis.h"
#include "serve/async_pipeline.h"
#include "serve/scheduler.h"

namespace fc {
namespace {

using serve::AsyncPipeline;
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

// ---------------------------------------------------------- Scheduler

TEST(Scheduler, FifoOrderAndCapacity)
{
    Scheduler scheduler(/*queue_capacity=*/2, /*num_threads=*/4);
    const auto cloud = sharedScene(64, 1);

    const auto a = scheduler.trySubmit(cloud, {}, std::nullopt);
    const auto b = scheduler.trySubmit(cloud, {}, std::nullopt);
    ASSERT_TRUE(a && b);
    EXPECT_NE(a->id, b->id);

    // Queue full: third submission is rejected, not queued.
    EXPECT_FALSE(scheduler.trySubmit(cloud, {}, std::nullopt));
    EXPECT_EQ(scheduler.queuedCount(), 2u);

    // acquire() pops in admission order.
    const auto job_a = scheduler.acquire();
    ASSERT_TRUE(job_a);
    EXPECT_EQ(job_a->id, a->id);
    EXPECT_EQ(scheduler.state(*a), RequestState::Running);
    EXPECT_EQ(scheduler.state(*b), RequestState::Queued);

    // A slot freed: admission works again.
    const auto c = scheduler.trySubmit(cloud, {}, std::nullopt);
    ASSERT_TRUE(c);

    scheduler.complete(job_a->id);
    EXPECT_TRUE(scheduler.poll(*a));
    EXPECT_EQ(scheduler.wait(*a).state, RequestState::Done);

    const auto job_b = scheduler.acquire();
    const auto job_c = scheduler.acquire();
    ASSERT_TRUE(job_b && job_c);
    EXPECT_EQ(job_b->id, b->id);
    EXPECT_EQ(job_c->id, c->id);
    scheduler.complete(job_b->id);
    scheduler.complete(job_c->id);
}

TEST(Scheduler, AcquireRetiresCancelledHead)
{
    Scheduler scheduler(4, 2);
    const auto cloud = sharedScene(64, 2);
    const auto t = scheduler.trySubmit(cloud, {}, std::nullopt);
    ASSERT_TRUE(t);
    EXPECT_TRUE(scheduler.cancel(*t));
    EXPECT_FALSE(scheduler.acquire()); // retired unrun
    const RequestOutcome outcome = scheduler.wait(*t);
    EXPECT_EQ(outcome.state, RequestState::Cancelled);
    // A terminal request cannot be cancelled again (and the ticket is
    // consumed, so cancel reports false rather than asserting).
    EXPECT_FALSE(scheduler.cancel(*t));
}

TEST(Scheduler, AcquireExpiresLateHead)
{
    Scheduler scheduler(4, 2);
    const auto cloud = sharedScene(64, 3);
    // Deadline already in the past at submission: the request is
    // admitted (rejection is for queue pressure) but must never run.
    const auto t = scheduler.trySubmit(
        cloud, {}, std::chrono::milliseconds(-1));
    ASSERT_TRUE(t);
    EXPECT_FALSE(scheduler.acquire());
    EXPECT_EQ(scheduler.wait(*t).state, RequestState::Expired);
}

TEST(Scheduler, CheckpointHonorsCancelAndDeadline)
{
    Scheduler scheduler(4, 2);
    const auto cloud = sharedScene(64, 4);

    const auto a = scheduler.trySubmit(cloud, {}, std::nullopt);
    auto job = scheduler.acquire();
    ASSERT_TRUE(job);
    EXPECT_TRUE(scheduler.checkpoint(job->id));
    EXPECT_TRUE(scheduler.cancel(*a));
    EXPECT_FALSE(scheduler.checkpoint(job->id));
    EXPECT_EQ(scheduler.wait(*a).state, RequestState::Cancelled);

    const auto b = scheduler.trySubmit(
        cloud, {}, std::chrono::milliseconds(1));
    job = scheduler.acquire();
    // Either outcome is legal depending on timing, but after the
    // deadline passes the request must end Expired.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (job) {
        EXPECT_FALSE(scheduler.checkpoint(job->id));
    }
    EXPECT_EQ(scheduler.wait(*b).state, RequestState::Expired);
}

TEST(Scheduler, SpillPolicyIsWorkConserving)
{
    // 4 pool threads: requests spill only while in-flight (queued +
    // running) stays under 4.
    Scheduler scheduler(16, /*num_threads=*/4);
    const auto cloud = sharedScene(64, 5);
    std::vector<Ticket> tickets;
    for (int i = 0; i < 6; ++i)
        tickets.push_back(
            *scheduler.trySubmit(cloud, {}, std::nullopt));

    // 6, 5, 4 in flight: saturated, no spill.
    for (int i = 0; i < 3; ++i) {
        const auto job = scheduler.acquire();
        ASSERT_TRUE(job);
        EXPECT_LT(job->spill_shard, 0) << "request " << i;
        scheduler.complete(job->id);
    }
    // 3, 2, 1 in flight: idle slots exist, spill.
    for (int i = 3; i < 6; ++i) {
        const auto job = scheduler.acquire();
        ASSERT_TRUE(job);
        EXPECT_GE(job->spill_shard, 0) << "request " << i;
        scheduler.complete(job->id);
        EXPECT_TRUE(scheduler.wait(tickets[i]).spilled);
    }
}

TEST(Scheduler, CheckpointRefreshesSpillAfterPoolDrains)
{
    // All four requests acquire at saturation (no spill); once three
    // complete, the survivor's next checkpoint switches it to spill.
    Scheduler scheduler(16, /*num_threads=*/4);
    const auto cloud = sharedScene(64, 7);
    std::vector<Ticket> tickets;
    std::vector<Scheduler::Job> jobs;
    for (int i = 0; i < 4; ++i)
        tickets.push_back(
            *scheduler.trySubmit(cloud, {}, std::nullopt));
    for (int i = 0; i < 4; ++i) {
        jobs.push_back(*scheduler.acquire());
        EXPECT_LT(jobs.back().spill_shard, 0) << "request " << i;
    }
    for (int i = 0; i < 3; ++i)
        scheduler.complete(jobs[i].id);

    int spill_shard = jobs[3].spill_shard;
    ASSERT_TRUE(scheduler.checkpoint(jobs[3].id, &spill_shard));
    EXPECT_EQ(spill_shard, 0) << "1 in flight < 4 threads must now spill";
    scheduler.complete(jobs[3].id);
    EXPECT_TRUE(scheduler.wait(tickets[3]).spilled);
}

// ------------------------------------------------------ AsyncPipeline

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
    // Bit-exact float comparison is intentional: the async schedule
    // must not change a single operation.
    EXPECT_EQ(a.gathered.values, b.gathered.values);
    EXPECT_EQ(a.num_blocks, b.num_blocks);
    EXPECT_EQ(a.partition_stats.num_splits, b.partition_stats.num_splits);
}

TEST(AsyncPipeline, SubmitPollWaitMatchesBlockingPath)
{
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 40; seed < 45; ++seed)
        clouds.push_back(data::makeS3disScene(2048, seed));

    BatchRequest request;
    request.sample_rate = 0.25;
    request.radius = 0.25f;
    request.neighbors = 16;

    std::vector<BatchResult> baseline;
    for (const data::PointCloud &cloud : clouds)
        baseline.push_back(blockingBaseline(cloud, request));

    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ServeOptions options;
        options.pipeline.num_threads = threads;
        options.queue_capacity = clouds.size();
        AsyncPipeline server(options);
        EXPECT_EQ(server.numThreads(), threads);

        std::vector<Ticket> tickets;
        for (const data::PointCloud &cloud : clouds)
            tickets.push_back(server.submit(cloud, request));

        // poll() never lies: once true, wait() returns immediately
        // with a terminal outcome.
        for (std::size_t i = 0; i < tickets.size(); ++i) {
            while (!server.poll(tickets[i]))
                std::this_thread::yield();
            const RequestOutcome outcome = server.wait(tickets[i]);
            ASSERT_EQ(outcome.state, RequestState::Done)
                << outcome.error;
            expectResultsIdentical(outcome.result, baseline[i]);
            EXPECT_GE(outcome.timing.started,
                      outcome.timing.submitted);
            EXPECT_GE(outcome.timing.finished, outcome.timing.started);
        }
    }
}

TEST(AsyncPipeline, RunBatchMatchesAsyncSubmission)
{
    std::vector<data::PointCloud> clouds;
    for (std::uint64_t seed = 50; seed < 54; ++seed)
        clouds.push_back(data::makeS3disScene(1024, seed));
    BatchRequest request;
    request.neighbors = 16;

    PipelineOptions options;
    options.num_threads = 2;
    const std::vector<BatchResult> batch =
        FractalCloudPipeline::runBatch(clouds, options, request);

    ServeOptions serve_options;
    serve_options.pipeline = options;
    AsyncPipeline server(serve_options);
    for (std::size_t i = 0; i < clouds.size(); ++i) {
        const RequestOutcome outcome =
            server.wait(server.submit(clouds[i], request));
        ASSERT_EQ(outcome.state, RequestState::Done);
        expectResultsIdentical(outcome.result, batch[i]);
    }
}

TEST(AsyncPipeline, DeadlineExpiryRetiresQueuedWork)
{
    // One worker: request A parks at its first stage boundary while B
    // (whose deadline is already past) waits behind it, so B's
    // executor provably runs after the deadline.
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 4;
    StageGate gate;
    std::atomic<std::uint64_t> first_id{0};
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (stage == Stage::Started) {
            std::uint64_t expect = 0;
            first_id.compare_exchange_strong(expect, t.id);
        }
        if (t.id == first_id.load() && stage == Stage::Partitioned)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const Ticket a = server.submit(data::makeS3disScene(512, 60));
    gate.awaitReached();
    const auto b = server.trySubmit(data::makeS3disScene(512, 61), {},
                                    std::chrono::milliseconds(-1));
    ASSERT_TRUE(b);
    EXPECT_EQ(server.state(*b), RequestState::Queued);
    gate.release();

    EXPECT_EQ(server.wait(*b).state, RequestState::Expired);
    EXPECT_EQ(server.wait(a).state, RequestState::Done);
}

TEST(AsyncPipeline, DeadlineExpiryInterruptsRunningWork)
{
    // The observer out-sleeps the request's own deadline at a stage
    // boundary, so the following checkpoint must retire it. (If a
    // slow machine already expired it at acquire, the state is the
    // same — Expired without a complete result.)
    constexpr auto kDeadline = std::chrono::milliseconds(50);
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.stage_observer = [&](Ticket, Stage stage) {
        if (stage == Stage::Partitioned)
            std::this_thread::sleep_for(3 * kDeadline);
    };
    AsyncPipeline server(options);
    const Ticket t =
        server.submit(data::makeS3disScene(512, 62), {}, kDeadline);
    EXPECT_EQ(server.wait(t).state, RequestState::Expired);
}

TEST(AsyncPipeline, AdmissionQueueRejectsWhenFull)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.queue_capacity = 1;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const Ticket a = server.submit(data::makeS3disScene(512, 63));
    gate.awaitReached(); // A running, queue empty
    const auto b = server.trySubmit(data::makeS3disScene(512, 64));
    ASSERT_TRUE(b); // fills the only slot
    EXPECT_FALSE(server.trySubmit(data::makeS3disScene(512, 65)))
        << "third request must be rejected, not queued";
    gate.release();

    EXPECT_EQ(server.wait(a).state, RequestState::Done);
    EXPECT_EQ(server.wait(*b).state, RequestState::Done);
}

TEST(AsyncPipeline, CancelMidPartitionStopsTheRequest)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Partitioned)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const Ticket t = server.submit(data::makeS3disScene(2048, 66));
    gate.awaitReached();
    EXPECT_EQ(server.state(t), RequestState::Running);
    EXPECT_TRUE(server.cancel(t));
    gate.release();

    const RequestOutcome outcome = server.wait(t);
    EXPECT_EQ(outcome.state, RequestState::Cancelled);
    EXPECT_TRUE(outcome.result.sampled.indices.empty());
}

TEST(AsyncPipeline, CancelQueuedRequestNeverRuns)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    StageGate gate;
    std::atomic<bool> second_started{false};
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
        if (t.id == 2 && stage == Stage::Started)
            second_started.store(true);
    };
    AsyncPipeline server(options);

    const Ticket a = server.submit(data::makeS3disScene(512, 67));
    gate.awaitReached();
    const Ticket b = server.submit(data::makeS3disScene(512, 68));
    EXPECT_TRUE(server.cancel(b));
    gate.release();

    EXPECT_EQ(server.wait(b).state, RequestState::Cancelled);
    EXPECT_EQ(server.wait(a).state, RequestState::Done);
    EXPECT_FALSE(second_started.load())
        << "a cancelled queued request must be retired unrun";
}

TEST(AsyncPipeline, SingleRequestSpillsOnAMultiThreadPool)
{
    const data::PointCloud cloud = data::makeS3disScene(2048, 69);
    BatchRequest request;
    request.neighbors = 16;
    const BatchResult baseline = blockingBaseline(cloud, request);

    ServeOptions options;
    options.pipeline.num_threads = 4;
    AsyncPipeline server(options);
    const RequestOutcome outcome =
        server.wait(server.submit(cloud, request));
    ASSERT_EQ(outcome.state, RequestState::Done);
    EXPECT_TRUE(outcome.spilled)
        << "1 request in flight < 4 threads must spill";
    expectResultsIdentical(outcome.result, baseline);
}

TEST(AsyncPipeline, DiscardReclaimsAbandonedTickets)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    StageGate gate;
    options.stage_observer = [&](Ticket t, Stage stage) {
        if (t.id == 1 && stage == Stage::Started)
            gate.arriveAndWait();
    };
    AsyncPipeline server(options);

    const Ticket a = server.submit(data::makeS3disScene(512, 73));
    gate.awaitReached();
    const Ticket b = server.submit(data::makeS3disScene(512, 74));
    EXPECT_EQ(server.liveRecordCount(), 2u);

    // Fire-and-forget: B's record is reclaimed at retirement (it is
    // also flagged for cancellation, so it retires unrun), A's the
    // moment discard sees its terminal state.
    server.discard(b);
    server.discard(b); // idempotent
    gate.release();
    const RequestOutcome outcome = server.wait(a);
    EXPECT_EQ(outcome.state, RequestState::Done);
    while (server.liveRecordCount() != 0)
        std::this_thread::yield();
    server.discard(a); // consumed tickets are safe to discard
}

TEST(AsyncPipeline, FailedRequestCarriesTheException)
{
    ServeOptions options;
    options.pipeline.num_threads = 1;
    options.stage_observer = [](Ticket, Stage stage) {
        if (stage == Stage::Sampled)
            throw std::runtime_error("observer boom");
    };
    AsyncPipeline server(options);
    const RequestOutcome outcome =
        server.wait(server.submit(data::makeS3disScene(512, 72)));
    EXPECT_EQ(outcome.state, RequestState::Failed);
    EXPECT_EQ(outcome.error, "observer boom");
    ASSERT_TRUE(outcome.exception != nullptr);
    EXPECT_THROW(std::rethrow_exception(outcome.exception),
                 std::runtime_error);
}

TEST(AsyncPipeline, DestructorDrainsQueuedAndRunningWork)
{
    StageGate gate;
    {
        ServeOptions options;
        options.pipeline.num_threads = 1;
        options.stage_observer = [&](Ticket t, Stage stage) {
            if (t.id == 1 && stage == Stage::Started)
                gate.arriveAndWait();
        };
        AsyncPipeline server(options);
        server.submit(data::makeS3disScene(512, 70));
        gate.awaitReached();
        // Leave one request queued behind the gated one; the
        // destructor must cancel it and drain without hanging.
        server.submit(data::makeS3disScene(512, 71));
        gate.release();
    }
    SUCCEED();
}

TEST(AsyncPipeline, StressConcurrentSubmitPollCancel)
{
    constexpr int kSubmitters = 3;
    constexpr int kPerSubmitter = 8;
    constexpr std::size_t kPoints = 512;

    BatchRequest request;
    request.neighbors = 8;

    // Baselines for every seed, computed up front (blocking path).
    std::vector<BatchResult> baseline;
    for (int i = 0; i < kSubmitters * kPerSubmitter; ++i)
        baseline.push_back(blockingBaseline(
            data::makeS3disScene(kPoints, 80 + i), request));

    ServeOptions options;
    options.pipeline.num_threads = 4;
    options.queue_capacity = kSubmitters * kPerSubmitter;
    AsyncPipeline server(options);

    // Each submitter consumes three ways: value wait(), waitInto()
    // into one reused outcome, and discard(). Workers write results
    // into their records while other records are admitted, consumed
    // and reclaimed around them.
    std::atomic<int> done{0};
    std::atomic<int> cancelled{0};
    std::atomic<int> discarded{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            RequestOutcome reused;
            int reused_idx = -1; // request whose result `reused` holds
            for (int i = 0; i < kPerSubmitter; ++i) {
                const int idx = s * kPerSubmitter + i;
                const Ticket ticket = server.submit(
                    data::makeS3disScene(kPoints, 80 + idx), request);
                if (idx % 3 == 0)
                    server.cancel(ticket);
                if (idx % 4 == 3) {
                    server.discard(ticket);
                    discarded.fetch_add(1);
                    continue;
                }
                RequestOutcome value;
                const bool into = idx % 2 == 0;
                if (into)
                    server.waitInto(ticket, reused);
                else
                    value = server.wait(ticket);
                const RequestOutcome &outcome = into ? reused : value;
                if (outcome.state == RequestState::Done) {
                    done.fetch_add(1);
                    expectResultsIdentical(outcome.result,
                                           baseline[idx]);
                    if (into)
                        reused_idx = idx;
                } else {
                    EXPECT_EQ(outcome.state, RequestState::Cancelled);
                    cancelled.fetch_add(1);
                    // A request without a result leaves the caller's
                    // previous one in place.
                    if (into && reused_idx >= 0)
                        expectResultsIdentical(outcome.result,
                                               baseline[reused_idx]);
                }
            }
        });
    }
    for (std::thread &t : submitters)
        t.join();
    EXPECT_EQ(done.load() + cancelled.load() + discarded.load(),
              kSubmitters * kPerSubmitter);
    EXPECT_GT(done.load(), 0);
    EXPECT_GT(discarded.load(), 0);

    // Discarded tickets are reclaimed once they retire.
    while (server.liveRecordCount() != 0 || server.runningCount() != 0 ||
           server.queuedCount() != 0)
        std::this_thread::yield();
}

} // namespace
} // namespace fc
