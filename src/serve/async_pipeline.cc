#include "serve/async_pipeline.h"

#include <exception>
#include <utility>

#include "common/logging.h"
#include "core/workspace.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/neighbor.h"
#include "partition/partitioner.h"

namespace fc::serve {

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Started:
        return "started";
      case Stage::Partitioned:
        return "partitioned";
      case Stage::Sampled:
        return "sampled";
      case Stage::Grouped:
        return "grouped";
    }
    return "unknown";
}

AsyncPipeline::AsyncPipeline(const ServeOptions &options)
    : options_(options),
      scheduler_(options.queue_capacity,
                 core::ThreadPool::resolveThreadCount(
                     options.pipeline.num_threads),
                 options.work_conserving, std::max(1u, options.num_shards),
                 &registry_, options.class_capacity)
{
    static constexpr const char *kStageLabels[5] = {
        "partition", "sample", "group", "gather", "inference"};
    for (std::size_t i = 0; i < stage_us_.size(); ++i)
        stage_us_[i] = &registry_.histogram(
            std::string("serve.stage_us{stage=") + kStageLabels[i] +
            "}");
    rejected_ = &registry_.counter("serve.rejected");
    ws_checkouts_ = &registry_.counter("serve.workspace_checkouts");
    ws_created_gauge_ = &registry_.gauge("serve.workspaces_created");

    // Per shard: one workspace pool and one standalone thread pool,
    // instruments registered up front so the serve path mutates
    // pointers only.
    const unsigned num_shards = std::max(1u, options.num_shards);
    pools_.reserve(num_shards);
    task_counters_.reserve(num_shards);
    shards_.reserve(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
        auto pool = std::make_unique<ShardPool>();
        const std::string tag = "{shard=" + std::to_string(s) + "}";
        pool->checkout =
            &registry_.counter("serve.workspace.checkout" + tag);
        pool->created =
            &registry_.gauge("serve.workspace.created" + tag);
        pool->foreign_return =
            &registry_.counter("serve.workspace.foreign_return" + tag);
        pools_.push_back(std::move(pool));
        task_counters_.push_back(
            &registry_.counter("core.executor.tasks" + tag));
        shards_.push_back(std::make_unique<core::ThreadPool>(
            options.pipeline.num_threads, /*standalone=*/true));
    }
}

AsyncPipeline::~AsyncPipeline()
{
    // Retire everything before the pool (and its queue) dies: after
    // shutdown() no executor task remains queued, so the pool's
    // destructor assertion (empty queue) holds.
    scheduler_.shutdown();
}

std::optional<Ticket>
AsyncPipeline::trySubmitShared(
    std::shared_ptr<const data::PointCloud> cloud,
    const BatchRequest &request,
    std::optional<Clock::duration> deadline, Priority priority,
    std::uint64_t placement_key)
{
    // One executor task per request, on the shard the scheduler
    // placed it on (returned by the admission call itself — no
    // second lock to read it back).
    unsigned shard = 0;
    std::optional<Ticket> ticket =
        scheduler_.trySubmit(std::move(cloud), request, deadline,
                             priority, placement_key, &shard);
    if (ticket)
        dispatch(shard);
    else
        rejected_->add();
    return ticket;
}

Ticket
AsyncPipeline::submitShared(std::shared_ptr<const data::PointCloud> cloud,
                            const BatchRequest &request,
                            std::optional<Clock::duration> deadline,
                            Priority priority,
                            std::uint64_t placement_key)
{
    unsigned shard = 0;
    std::optional<Ticket> ticket =
        scheduler_.submitBlocking(std::move(cloud), request, deadline,
                                  priority, placement_key, &shard);
    fc_assert(ticket.has_value(),
              "submit on a shutting-down AsyncPipeline");
    dispatch(shard);
    return *ticket;
}

std::optional<Ticket>
AsyncPipeline::trySubmit(data::PointCloud cloud,
                         const BatchRequest &request,
                         std::optional<Clock::duration> deadline,
                         Priority priority, std::uint64_t placement_key)
{
    return trySubmitShared(
        std::make_shared<const data::PointCloud>(std::move(cloud)),
        request, deadline, priority, placement_key);
}

Ticket
AsyncPipeline::submit(data::PointCloud cloud, const BatchRequest &request,
                      std::optional<Clock::duration> deadline,
                      Priority priority, std::uint64_t placement_key)
{
    return submitShared(
        std::make_shared<const data::PointCloud>(std::move(cloud)),
        request, deadline, priority, placement_key);
}

void
AsyncPipeline::dispatch(unsigned shard)
{
    fc_assert(shard < shards_.size(), "submit on unknown shard %u",
              shard);
    task_counters_[shard]->add();
    shards_[shard]->submitDetached([this, shard] { execute(shard); });
}

void
AsyncPipeline::notifyObserver(std::uint64_t id, Stage stage)
{
    if (options_.stage_observer)
        options_.stage_observer(Ticket{id}, stage);
}

std::unique_ptr<AsyncPipeline::ShardWorkspace>
AsyncPipeline::checkoutWorkspace(unsigned shard)
{
    ShardPool &pool = *pools_[shard];
    ws_checkouts_->add();
    pool.checkout->add();
    {
        std::lock_guard<std::mutex> lock(pool.mutex);
        if (!pool.ws_free.empty()) {
            std::unique_ptr<ShardWorkspace> ws =
                std::move(pool.ws_free.back());
            pool.ws_free.pop_back();
            ws->ws.reset();
            return ws;
        }
        ++pool.ws_created;
        pool.created->set(
            static_cast<std::int64_t>(pool.ws_created));
    }
    // Cold path: first request at this shard's concurrency level.
    // The pool can never exceed the shard's thread count (one
    // checkout per executor task).
    const std::size_t total =
        ws_created_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    ws_created_gauge_->set(static_cast<std::int64_t>(total));
    auto ws = std::make_unique<ShardWorkspace>();
    ws->owner = shard;
    return ws;
}

void
AsyncPipeline::checkinWorkspace(std::unique_ptr<ShardWorkspace> ws,
                                unsigned returning_shard)
{
    ShardPool &pool = *pools_[ws->owner];
    if (returning_shard != ws->owner)
        pool.foreign_return->add(); // tripwire: should stay 0
    std::lock_guard<std::mutex> lock(pool.mutex);
    pool.ws_free.push_back(std::move(ws));
}

std::size_t
AsyncPipeline::workspacesCreated() const
{
    return ws_created_total_.load(std::memory_order_relaxed);
}

std::size_t
AsyncPipeline::workspacesCreated(unsigned shard) const
{
    fc_assert(shard < pools_.size(),
              "workspacesCreated on unknown shard %u", shard);
    ShardPool &pool = *pools_[shard];
    std::lock_guard<std::mutex> lock(pool.mutex);
    return pool.ws_created;
}

void
AsyncPipeline::execute(unsigned shard)
{
    std::optional<Scheduler::Job> job = scheduler_.acquire(shard);
    if (!job)
        return; // the popped request was retired (cancelled/expired)

    // Spill: hand a shard's pool to a stage so the request's
    // per-block work items fill idle slots — its own shard's when
    // whole requests can't saturate it, a fully idle neighbor's when
    // its own is busy; otherwise the stage runs inline on this
    // worker (one cloud per thread). The decision is re-evaluated at
    // every checkpoint (all chunks have joined there): a request
    // acquired at saturation starts spilling once capacity frees
    // anywhere, and a borrowed neighbor is released one stage after
    // it receives its own work. Identical results either way; only
    // the schedule differs. (A one-thread spill target degenerates
    // to inline: its TaskGroup would run chunks on this waiter
    // anyway.)
    int spill_shard = job->spill_shard;
    const auto pool = [&]() -> core::ThreadPool * {
        if (spill_shard < 0)
            return nullptr;
        core::ThreadPool &target =
            *shards_[static_cast<unsigned>(spill_shard)];
        return target.numThreads() > 1 ? &target : nullptr;
    };
    const std::uint64_t id = job->id;
    const data::PointCloud &cloud = *job->cloud;

    // One warm workspace per ticket: intermediates (the partition,
    // op scratch, the inference stage's level buffers) reuse memory
    // grown by earlier requests of this shard. The lease scope
    // closes *before* the terminal complete()/fail() transition: the
    // moment a waiter observes the outcome, the workspace is already
    // back on its shard's free list, so back-to-back sequential
    // requests reuse one workspace deterministically.
    struct WorkspaceLease
    {
        AsyncPipeline *owner;
        std::unique_ptr<ShardWorkspace> ws;
        unsigned shard;
        ~WorkspaceLease()
        {
            owner->checkinWorkspace(std::move(ws), shard);
        }
    };

    // Per-stage service-time telemetry: lap() charges the time since
    // the previous boundary to one stage histogram. The two
    // steady-clock reads per stage cost nanoseconds against
    // millisecond stages; with sampling off the record itself is a
    // load + branch.
    Clock::time_point stage_mark = Clock::now();
    const auto lap = [&](unsigned stage_index) {
        const Clock::time_point now = Clock::now();
        if (now > stage_mark)
            stage_us_[stage_index]->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - stage_mark)
                    .count()));
        else
            stage_us_[stage_index]->record(0);
        stage_mark = now;
    };

    // The result lives in the request's scheduler record; stages
    // write into it in place (the Into ops clear what they fill), so
    // a recycled record's stale content is never observable.
    BatchResult &out = *job->result;
    try {
        WorkspaceLease lease{this, checkoutWorkspace(shard), shard};
        core::Workspace &ws = lease.ws->ws;

        notifyObserver(id, Stage::Started);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        part::PartitionConfig config;
        config.threshold = options_.pipeline.threshold;
        part::PartitionerCache &pcache =
            ws.slot<part::PartitionerCache>("srv.pcache");
        part::PartitionResult &part =
            ws.slot<part::PartitionResult>("srv.part");
        pcache.get(options_.pipeline.method)
            .partitionInto(cloud, config, pool(), ws, part);
        lap(0); // partition
        notifyObserver(id, Stage::Partitioned);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        ops::FpsOptions fps;
        fps.window_check = options_.pipeline.window_check;
        ops::blockFarthestPointSample(cloud, part.tree,
                                      job->request.sample_rate, fps,
                                      pool(), ws, out.sampled);
        lap(1); // sample
        notifyObserver(id, Stage::Sampled);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        ops::blockBallQuery(cloud, part.tree, out.sampled,
                            job->request.radius,
                            job->request.neighbors, pool(), ws,
                            out.grouped);
        lap(2); // group
        notifyObserver(id, Stage::Grouped);
        if (!scheduler_.checkpoint(id, &spill_shard))
            return;

        ops::blockGatherNeighborhoods(
            cloud, part.tree, out.sampled.indices,
            out.sampled.leaf_offsets, out.grouped, pool(), ws,
            out.gathered);
        out.partition_stats = part.stats;
        out.num_blocks = part.tree.leaves().size();
        lap(3); // gather

        if (job->request.network != nullptr) {
            // End-to-end inference stage: the serving pool drives the
            // network's internals (per-stage re-partition, block ops,
            // MLPs, pooling), all drawing from this ticket's warm
            // workspace. Extra checkpoint first — inference is the
            // most expensive stage, so cancels/deadlines issued
            // during gathering are honored before it starts.
            if (!scheduler_.checkpoint(id, &spill_shard))
                return;
            stage_mark = Clock::now(); // exclude checkpoint wait
            nn::BackendOptions backend;
            backend.method = options_.pipeline.method;
            backend.threshold = options_.pipeline.threshold;
            backend.pool = pool();
            backend.aggregation = job->request.aggregation;
            // Stage 0 of the network reuses the partition this
            // request already built instead of recomputing it.
            backend.root_partition = &part;
            // Per-stage FPS/neighbor/MLP timings land in this
            // pipeline's registry (nn.stage_us{stage=...}).
            backend.metrics = &registry_;
            // Engage (don't re-emplace) the optional: a recycled
            // record's engaged InferenceResult keeps its tensor
            // capacity, which run() reuses in place.
            if (!out.inference)
                out.inference.emplace();
            job->request.network->run(cloud, backend, ws,
                                      *out.inference);
            lap(4); // inference
        } else {
            // A recycled record may carry a stale inference payload
            // from a previous network request; waiters key on the
            // optional's engagement.
            out.inference.reset();
        }
        // Lease scope ends here: the workspace is checked in before
        // the request becomes observable as Done.
    } catch (...) {
        scheduler_.fail(id, std::current_exception());
        return;
    }
    scheduler_.complete(id);
}

} // namespace fc::serve
