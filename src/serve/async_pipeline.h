/**
 * @file
 * fc::serve::AsyncPipeline — the asynchronous serving frontend.
 *
 * FractalCloudPipeline::runBatch is a blocking call. This layer turns
 * the library into a service skeleton:
 *
 *   - submit()/trySubmit() admit one cloud each into a bounded,
 *     priority-classed admission queue and return a Ticket
 *     immediately; trySubmit rejects (nullopt) when the queue is
 *     full. Each request lands on one executor shard by consistent
 *     hashing (ticket id, or a caller placement key for session
 *     affinity) and in one of three priority classes (Interactive /
 *     Batch / Background) that share each shard 8:4:1 under weighted
 *     aging — bulk traffic cannot starve, interactive traffic keeps
 *     its tail,
 *   - poll()/state()/wait()/waitFor() observe a ticket; wait()
 *     blocks for and consumes the terminal RequestOutcome, waitFor()
 *     bounds the block without cancelling,
 *   - per-request deadlines retire late work as Expired the moment a
 *     worker would otherwise start — or, between stages, continue —
 *     it,
 *   - cancel() retires queued work without running it and interrupts
 *     running work at its next stage boundary, and
 *   - the work-conserving Scheduler spills a request's intra-cloud
 *     block items (partition subtrees, block-wise FPS / neighbor /
 *     gather) into idle pool slots — its own shard's when in-flight
 *     requests there number fewer than the shard's threads, else a
 *     drained neighbor shard's; otherwise requests run
 *     one-per-thread. The decision is re-evaluated at every stage
 *     boundary, so the last big request of a batch starts spilling
 *     once its peers finish, and
 *   - per-SHARD free-list pools of core::Workspace instances, one
 *     checked out per ticket on its placement shard: every request's
 *     intermediates (partition trees, op scratch, the inference
 *     stage's per-level buffers) draw from a workspace warmed by
 *     earlier requests OF THE SAME SHARD, so with pinned workers a
 *     workspace's pages stay on the NUMA node that touched them.
 *     Cross-shard spill borrows a neighbor's COMPUTE only — the
 *     workspace always belongs to the home shard's pool. Each pool
 *     never exceeds its shard's thread count, so steady-state memory
 *     is bounded by the largest shapes seen, and
 *   - a slab-recycled outcome pool (also per shard): the BatchResult
 *     payload itself lives in a pooled OutcomeSlot whose lease rides
 *     the ticket from complete() to the consuming wait. waitInto()
 *     copies capacity-into-capacity and recycles the slot warm, so a
 *     warm same-shape submit -> poll -> waitInto round trip performs
 *     ZERO heap allocations end to end (value-returning wait() moves
 *     the payload out instead and the slot regrows on next use).
 *
 * Results are byte-identical to the blocking path at any thread
 * count: every stage is deterministic with respect to its pool, so
 * scheduling decisions affect wall-clock only.
 *
 * Each request runs the serving stage sequence of runBatch:
 * partition -> block-wise FPS -> ball query -> gather, producing the
 * same BatchResult — plus an optional end-to-end inference stage
 * (BatchRequest::network), whose pool-driven nn::Network::run also
 * spills its internal work items under the same policy.
 */

#ifndef FC_SERVE_ASYNC_PIPELINE_H
#define FC_SERVE_ASYNC_PIPELINE_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/sharded_executor.h"
#include "core/workspace.h"
#include "serve/scheduler.h"

namespace fc::serve {

/** Stage boundaries of one request, in execution order. */
enum class Stage : std::uint8_t {
    Started,     ///< acquired by a worker, before partitioning
    Partitioned, ///< partition built
    Sampled,     ///< block-wise FPS done
    Grouped,     ///< ball query done
};

const char *stageName(Stage stage);

/** Configuration of an AsyncPipeline. */
struct ServeOptions
{
    /** Partition method/threshold plus num_threads, which sizes each
     *  executor shard's pool (0 = hardware). Unlike the blocking
     *  pipeline, num_threads = 1 still spawns one background worker
     *  per shard — requests are processed asynchronously but, within
     *  a shard and a priority class, strictly FIFO, with results
     *  identical to the sequential path. */
    PipelineOptions pipeline;

    /**
     * Executor shards. 1 (the default) is the single-pool runtime of
     * PR 2-4, unchanged. With N > 1, requests are placed onto shards
     * by consistent hashing (ticket id, or the submit call's
     * placement key for session affinity); each shard has its own
     * num_threads-sized pool and queues, and the work-conserving
     * policy may borrow an idle neighbor shard for a busy request's
     * block items. Results are byte-identical at any shard count.
     */
    unsigned num_shards = 1;

    /** Admission-queue bound: max requests waiting to start, summed
     *  over all shards and priority classes. */
    std::size_t queue_capacity = 64;

    /** Enable the work-conserving spill policy. false = always
     *  one-cloud-per-thread (the PR 1 runBatch dispatch). */
    bool work_conserving = true;

    /**
     * Aging weight per priority class
     * (Interactive : Batch : Background), each > 0. Backlogged
     * classes share every shard in this proportion; the default is
     * the historical 8:4:1. Runtime-configurable so deployments can
     * retune fairness without rebuilding — the active weights are
     * surfaced in /stats (serve.priority_weight{class=...}).
     */
    std::array<std::uint64_t, kNumPriorities> priority_weights =
        kPriorityWeight;

    /**
     * Pin each shard's workers to a disjoint cpu set carved from the
     * detected NUMA topology (shard s prefers node s % nodes; see
     * core/topology.h), keeping a shard's workspace and arena pages
     * on the socket that touches them. Best-effort: refused affinity
     * calls (restricted runners, non-Linux) degrade to unpinned
     * workers, and FC_NO_PIN=1 disables pinning at runtime without a
     * rebuild. Never affects results, only locality.
     */
    bool pin_shards = true;

    /**
     * Per-class admission bounds layered on queue_capacity: at most
     * class_capacity[c] requests of class c may be queued at once
     * across all shards (0 = bounded only by queue_capacity). Keeps
     * a Background flood from crowding Interactive out of the
     * admission queue; rejections count in
     * serve.rejected_class{class=...}.
     */
    std::array<std::size_t, kNumPriorities> class_capacity{};

    /**
     * Test/telemetry hook: invoked on the executing worker at every
     * stage boundary of every request, just before that boundary's
     * cancel/deadline checkpoint (so a cancel() issued while the
     * observer runs is honored). Must be thread-safe; leave empty
     * for production use.
     */
    std::function<void(Ticket, Stage)> stage_observer;
};

/**
 * Asynchronous submit/poll/wait serving frontend over a
 * core::ShardedExecutor of standalone ThreadPool shards
 * (ServeOptions::num_shards = 1 collapses to the single-pool
 * frontend of PR 2-4, unchanged).
 *
 * Thread-safe: any thread may submit, poll, cancel, or wait. The
 * destructor rejects new work, cancels everything still queued, and
 * blocks until in-flight requests retire — do not race submissions
 * against destruction.
 */
class AsyncPipeline
{
  public:
    explicit AsyncPipeline(const ServeOptions &options = {});
    ~AsyncPipeline();

    AsyncPipeline(const AsyncPipeline &) = delete;
    AsyncPipeline &operator=(const AsyncPipeline &) = delete;

    /**
     * Admit one cloud; returns nullopt when the admission queue is
     * full (the request is rejected, not queued). @p deadline is
     * relative to now; late work is retired as Expired instead of
     * running.
     *
     * @p priority picks the admission class (see serve::Priority):
     * backlogged classes share each shard 8:4:1
     * (Interactive:Batch:Background) under weighted aging, so bulk
     * traffic cannot starve and interactive traffic keeps its tail.
     * @p placement_key pins placement: 0 spreads requests over
     * shards by ticket id; any fixed key (session id, client id)
     * lands all its requests on one shard's warm workspaces.
     *
     * The cloud is moved into the call and dropped on rejection —
     * retry-with-backoff loops should use trySubmitShared, which
     * keeps one shared cloud alive across attempts instead of
     * re-copying (or losing) it.
     *
     * Admission itself is allocation-free once warm (recycled
     * request records and queue slots); this overload's only heap
     * allocation is the shared_ptr that takes ownership of the moved
     * cloud. trySubmitShared with a kept-alive cloud touches the
     * heap zero times, and so does the processing of warm same-shape
     * requests. Results are deterministic: a given (cloud, request)
     * pair produces the same BatchResult regardless of shard, class,
     * or concurrency.
     */
    std::optional<Ticket>
    trySubmit(data::PointCloud cloud, const BatchRequest &request = {},
              std::optional<Clock::duration> deadline = std::nullopt,
              Priority priority = Priority::Interactive,
              std::uint64_t placement_key = 0);

    /** Blocking admission: waits for queue space instead of
     *  rejecting. */
    Ticket
    submit(data::PointCloud cloud, const BatchRequest &request = {},
           std::optional<Clock::duration> deadline = std::nullopt,
           Priority priority = Priority::Interactive,
           std::uint64_t placement_key = 0);

    /**
     * Zero-copy variants for callers that manage cloud lifetime
     * themselves (e.g. runBatch aliases its input vector): the cloud
     * must stay alive until the ticket retires.
     */
    std::optional<Ticket>
    trySubmitShared(std::shared_ptr<const data::PointCloud> cloud,
                    const BatchRequest &request = {},
                    std::optional<Clock::duration> deadline = std::nullopt,
                    Priority priority = Priority::Interactive,
                    std::uint64_t placement_key = 0);
    Ticket
    submitShared(std::shared_ptr<const data::PointCloud> cloud,
                 const BatchRequest &request = {},
                 std::optional<Clock::duration> deadline = std::nullopt,
                 Priority priority = Priority::Interactive,
                 std::uint64_t placement_key = 0);

    /** True once the ticket reached a terminal state. */
    bool poll(Ticket ticket) const { return scheduler_.poll(ticket); }

    /** Current state of a live (not yet wait()ed) ticket. */
    RequestState
    state(Ticket ticket) const
    {
        return scheduler_.state(ticket);
    }

    /** Block until terminal; consumes the ticket. */
    RequestOutcome wait(Ticket ticket) { return scheduler_.wait(ticket); }

    /**
     * Allocation-free wait: consume the ticket into @p out, reusing
     * @p out's payload capacity and recycling the pooled result slot
     * warm. A warm same-shape submitShared -> waitInto loop with a
     * reused RequestOutcome performs zero heap allocations on the
     * serve path (bench_memory_churn gates this at exactly 0).
     */
    void
    waitInto(Ticket ticket, RequestOutcome &out)
    {
        scheduler_.waitInto(ticket, out);
    }

    /**
     * Bounded wait: block up to @p timeout. On success the outcome
     * is returned and the ticket consumed, exactly as by wait(); on
     * timeout returns nullopt and the ticket stays live — the
     * request is NOT cancelled (it keeps its queue position or keeps
     * running), and the caller may wait again, cancel, or discard.
     */
    std::optional<RequestOutcome>
    waitFor(Ticket ticket, Clock::duration timeout)
    {
        return scheduler_.waitFor(ticket, timeout);
    }

    /** Best-effort cancel; true = requested, not guaranteed — the
     *  request may still retire Done (see Scheduler::cancel). */
    bool cancel(Ticket ticket) { return scheduler_.cancel(ticket); }

    /**
     * Give up on a ticket without collecting its outcome (its record
     * is reclaimed once the request retires). Every ticket must end
     * in exactly one wait() or discard() — cancel() alone does not
     * free the bookkeeping. See Scheduler::discard.
     */
    void discard(Ticket ticket) { scheduler_.discard(ticket); }

    /** Resolved per-shard pool size. */
    unsigned numThreads() const { return executor_.threadsPerShard(); }

    /** Executor shard count. */
    unsigned numShards() const { return executor_.numShards(); }

    /** Whether shard workers are actually pinned (pin_shards was set,
     *  FC_NO_PIN is unset, and a topology was detected). */
    bool pinned() const { return executor_.pinned(); }

    /** Snapshot of requests admitted but not yet started (all
     *  shards). Allocation-free; racy by nature — use for telemetry,
     *  not control flow. */
    std::size_t queuedCount() const { return scheduler_.queuedCount(); }

    /** Snapshot of requests currently executing (all shards).
     *  Allocation-free; racy by nature. */
    std::size_t runningCount() const
    {
        return scheduler_.runningCount();
    }

    /** Per-shard telemetry. */
    std::size_t
    queuedCount(unsigned shard) const
    {
        return scheduler_.queuedCount(shard);
    }
    std::size_t
    runningCount(unsigned shard) const
    {
        return scheduler_.runningCount(shard);
    }

    /**
     * Workspaces created so far, summed over shards (telemetry):
     * stops growing once every concurrent executor has one —
     * sequential same-shape traffic reports 1, proving warm reuse.
     */
    std::size_t workspacesCreated() const;

    /** Workspaces created by @p shard's pool alone: flat per shard
     *  under steady per-shard concurrency, proving checkouts never
     *  migrate across pools. */
    std::size_t workspacesCreated(unsigned shard) const;

    /** Outcome slots created so far, summed over shards: bounded by
     *  the number of concurrently un-consumed tickets. */
    std::size_t outcomeSlotsCreated() const;

    /**
     * The pipeline's metrics registry: per-(shard x class) queue
     * depth / wait / latency instruments (Scheduler), per-stage
     * latency histograms and admission/workspace telemetry (this
     * class), per-shard executor task counts (ShardedExecutor), and
     * the inference stage's per-stage nn timings. Render it with
     * serve::renderStats / renderStatsJson (serve/stats.h); mutation
     * cost is governed by core::metrics::setSampling.
     */
    core::metrics::Registry &metrics() { return registry_; }
    const core::metrics::Registry &metrics() const { return registry_; }

    /** Records held (pending + terminal-but-uncollected). */
    std::size_t liveRecordCount() const
    {
        return scheduler_.liveRecordCount();
    }

  private:
    /** A pooled workspace tagged with the shard whose pool owns it:
     *  check-in always routes back to the owner, wherever the lease
     *  ends up (foreign returns are counted — a tripwire, since the
     *  executor task itself never migrates off its home shard). */
    struct ShardWorkspace
    {
        core::Workspace ws;
        unsigned owner = 0;
    };

    /**
     * One shard's memory pools plus their instruments: the workspace
     * free list (intermediates) and the outcome slab (result
     * payloads, leased to the scheduler from complete() until the
     * consuming wait). The pool mutex is a LEAF lock — taken under
     * the scheduler mutex by the recycler, so pool code must never
     * call back into the scheduler.
     */
    struct ShardPool
    {
        std::mutex mutex;
        std::vector<std::unique_ptr<ShardWorkspace>> ws_free;
        std::size_t ws_created = 0;

        /** Every slot this shard ever created (ownership; outlives
         *  any lease) and the subset currently free. */
        std::vector<std::unique_ptr<OutcomeSlot>> outcome_all;
        std::vector<OutcomeSlot *> outcome_free;

        core::metrics::Counter *checkout = nullptr;
        core::metrics::Gauge *created = nullptr;
        core::metrics::Counter *foreign_return = nullptr;
        core::metrics::Counter *outcome_checkout = nullptr;
        core::metrics::Gauge *outcome_created = nullptr;
    };

    /** Executor task body: process (or retire) the best queued
     *  request of @p shard. */
    void execute(unsigned shard);

    void notifyObserver(std::uint64_t id, Stage stage);

    /** Pop a warm workspace from @p shard's pool (reset) or create
     *  one (first-seen per-shard concurrency). */
    std::unique_ptr<ShardWorkspace> checkoutWorkspace(unsigned shard);

    /** Return @p ws to its OWNER's free list; @p returning_shard only
     *  feeds the foreign-return tripwire counter. */
    void checkinWorkspace(std::unique_ptr<ShardWorkspace> ws,
                          unsigned returning_shard);

    /** Pop a warm outcome slot from @p shard's slab (or grow it). */
    OutcomeSlot *checkoutOutcome(unsigned shard);

    /** Return a slot to its owner's slab, capacity intact. Installed
     *  as the scheduler's recycler (called under its mutex). */
    void recycleOutcome(OutcomeSlot *slot);

    ServeOptions options_;

    /**
     * Declared first deliberately: every layer below (executor,
     * scheduler, this class's own instruments) holds pointers into
     * the registry until its workers join, so the registry must be
     * destroyed last.
     */
    core::metrics::Registry registry_;

    /** Per-stage service-time histograms (serve.stage_us{stage=...}),
     *  recorded on the executing worker between stage boundaries. */
    std::array<core::metrics::Histogram *, 5> stage_us_{};

    /** Admission rejections (trySubmit returning nullopt). */
    core::metrics::Counter *rejected_ = nullptr;

    /** Aggregate workspace telemetry, kept for /stats compatibility:
     *  the counter sums checkouts over all shards; the gauge mirrors
     *  workspacesCreated(). Per-shard instruments live in pools_. */
    core::metrics::Counter *ws_checkouts_ = nullptr;
    core::metrics::Gauge *ws_created_gauge_ = nullptr;

    /** Pool-creation totals across shards (atomic: creations on
     *  different shards race only on these). */
    std::atomic<std::size_t> ws_created_total_{0};
    std::atomic<std::size_t> outcomes_created_total_{0};

    /** Declared before executor_ and scheduler_ deliberately: an
     *  executor task returns its workspace lease as its very last
     *  action, and the scheduler's recycler returns outcome slots
     *  during shutdown — ~AsyncPipeline retires all requests, the
     *  shard pools join their workers, and only after both may the
     *  pools die. unique_ptr elements keep each ShardPool's mutex at
     *  a stable address. */
    std::vector<std::unique_ptr<ShardPool>> pools_;

    core::ShardedExecutor executor_;
    Scheduler scheduler_;
};

} // namespace fc::serve

#endif // FC_SERVE_ASYNC_PIPELINE_H
