/**
 * @file
 * The serving scheduler: sharded, priority-aware admission with
 * per-request deadlines, cooperative cancellation, and the
 * work-conserving spill policy, which is the only dispatch.
 *
 * The Scheduler owns no threads — it is the pure bookkeeping core of
 * fc::serve::AsyncPipeline, which pairs it with one standalone
 * core::ThreadPool per shard. Executors interact with it through a
 * narrow protocol:
 *
 *   trySubmit/submitBlocking  admit one request: consistent-hash
 *                             placement picks its shard, its priority
 *                             class picks its queue (bounded;
 *                             trySubmit fails when full),
 *   acquire(shard)            pop the best head of one shard's
 *                             priority queues; requests already
 *                             cancelled or past their deadline are
 *                             retired here without running,
 *   checkpoint                mid-run cancel/deadline probe at stage
 *                             boundaries; retires the request when it
 *                             answers false,
 *   complete/fail             terminal transitions, and
 *   poll/state/wait/waitFor/cancel  the client-facing side.
 *
 * Each request's record is the one home of its result: the executor
 * writes the stages into the record's BatchResult (Job::result), and
 * the consuming wait swaps it with the caller's. Records are recycled
 * with their buffers' capacity, so a warm round trip allocates
 * nothing.
 *
 * Placement: each request hashes onto a shard via core::ShardMap —
 * by its ticket id by default (spreads uniform traffic evenly), or by
 * a caller-supplied placement key (pins a client/session to one shard
 * so repeated requests keep hitting the same warm workspaces). The
 * mapping is a pure function of (key, shard count): deterministic
 * across runs, stable under shard-count growth for all but ~1/(N+1)
 * of keys. Placement never affects results — every stage is
 * deterministic with respect to its pool — only locality and load.
 *
 * Priority classes with weighted aging: each shard keeps one FIFO per
 * class (Interactive / Batch / Background). Every acquire() first
 * ages all non-empty classes by their weight, then pops the class
 * with the highest accumulated credit (ties to the more interactive
 * class) and zeroes its credit. Backlogged classes therefore share
 * the shard in proportion to their weights (8:4:1), and a Background
 * request under sustained Interactive load is delayed by at most
 * ceil(w_I / w_G) + 1 = 9 pops — aged forward, never starved. Within
 * a class, strict FIFO. A single-class workload (e.g. everything
 * Interactive, the default) degenerates to exactly the PR 2 FIFO.
 *
 * Work-conserving spill, across shards: acquire() marks a request
 * with a spill shard when idle capacity exists — its own shard when
 * in-flight requests there number fewer than the shard's threads,
 * else the FULLY idle other shard with the fewest active borrowers
 * (lowest index on ties); with neither, the request runs inline, one
 * cloud per thread. The executor
 * dispatches the request's intra-cloud block items onto that shard's
 * pool instead of running them inline; one busy shard can therefore
 * borrow a drained neighbor's cores. Only idle neighbors are
 * borrowed because pool workers prefer the fork/join (chunk) lane:
 * foreign chunks on a shard with queued requests of its own would
 * run ahead of them — a priority inversion. checkpoint()
 * re-evaluates the target from scratch at every stage boundary
 * (where all of the request's chunks have joined), so borrows end
 * one stage after the neighbor receives its own work, and freed
 * capacity anywhere is filled one stage later. Every block op is
 * deterministic with respect to its pool, so the decision affects
 * wall-clock only, never results.
 */

#ifndef FC_SERVE_SCHEDULER_H
#define FC_SERVE_SCHEDULER_H

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/shard_map.h"
#include "dataset/point_cloud.h"

namespace fc::serve {

/** Steady clock used for deadlines and latency accounting. */
using Clock = std::chrono::steady_clock;

/** Opaque handle to a submitted request. id 0 is never issued. */
struct Ticket
{
    std::uint64_t id = 0;
};

/** Lifecycle of a request. */
enum class RequestState : std::uint8_t {
    Queued,    ///< admitted, waiting for a worker
    Running,   ///< a worker is processing it
    Done,      ///< finished; outcome carries the result
    Cancelled, ///< retired by cancel() before finishing
    Expired,   ///< retired because its deadline passed
    Failed,    ///< processing threw; outcome carries the message
};

const char *stateName(RequestState state);

/** Done / Cancelled / Expired / Failed. */
bool isTerminal(RequestState state);

/**
 * Admission priority class. Lower value = more interactive. Classes
 * share each shard in proportion to their aging weights; no class
 * can starve (see file comment).
 */
enum class Priority : std::uint8_t {
    Interactive = 0, ///< latency-sensitive foreground traffic
    Batch = 1,       ///< bulk work with throughput targets
    Background = 2,  ///< best-effort (re-indexing, prefetch, ...)
};

inline constexpr unsigned kNumPriorities = 3;

/** Aging weight per class: relative share of a backlogged shard. */
inline constexpr std::array<std::uint64_t, kNumPriorities>
    kPriorityWeight = {8, 4, 1};

const char *priorityName(Priority priority);

/** Steady-clock milestones of one request (for latency accounting). */
struct RequestTiming
{
    Clock::time_point submitted;
    Clock::time_point started; ///< == finished for never-run requests
    Clock::time_point finished;
};

/** Terminal outcome of a request, returned once by wait(). */
struct RequestOutcome
{
    RequestState state = RequestState::Cancelled;

    /** Identical to the blocking path's output; valid when Done. */
    BatchResult result;

    /** Exception message; non-empty only when Failed. */
    std::string error;

    /** The original exception, for callers (like runBatch) that want
     *  to rethrow it; non-null only when Failed. */
    std::exception_ptr exception;

    RequestTiming timing;

    /** Class the request was admitted under. */
    Priority priority = Priority::Interactive;

    /** Shard the request was placed on. */
    unsigned shard = 0;

    /** Whether the work-conserving policy spilled this request's
     *  intra-cloud block items onto a pool (its own shard's or a
     *  drained neighbor's) for at least one stage. */
    bool spilled = false;
};

/**
 * Thread-safe request ledger (see file comment for the protocol).
 *
 * Task/record pairing: executors do not acquire a *specific* request
 * — acquire(shard) hands out the best queued request of that shard
 * under the priority policy. AsyncPipeline enqueues exactly one
 * executor task on shard s's pool per request admitted to shard s,
 * so counts always match even when task and record insertion
 * interleave across submitter threads.
 */
class Scheduler
{
  public:
    /** What an executor needs to process one request. */
    struct Job
    {
        std::uint64_t id = 0;
        std::shared_ptr<const data::PointCloud> cloud;
        BatchRequest request;

        /** Shard this request was placed on (== the acquiring
         *  executor's shard). */
        unsigned shard = 0;

        /** Work-conserving decision: the shard whose pool should
         *  run this request's block items; negative = run inline.
         *  Equals `shard` for a same-shard spill, another index for a
         *  cross-shard borrow. */
        int spill_shard = -1;

        /** The record's result, which the executor fills in place.
         *  It may hold a previous request's data (every stage
         *  overwrites what it fills). Valid until this executor's own
         *  complete()/fail(), or a checkpoint() that returns false:
         *  records_ is node-based and a Running record is never
         *  reclaimed before then. */
        BatchResult *result = nullptr;
    };

    /**
     * @param queue_capacity  max requests waiting (Queued) at once,
     *                        summed over all shards and classes
     * @param num_threads     per-shard pool size the spill policy
     *                        compares with
     * @param num_shards      executor shards (placement targets)
     * @param registry        when non-null, the scheduler registers
     *                        and maintains its serving telemetry
     *                        (per-(shard x class) queue depth, wait
     *                        and latency histograms, pop/spill/borrow
     *                        and outcome counters) in it; must
     *                        outlive the scheduler
     * @param class_capacity  per-class admission bound layered on
     *                        @p queue_capacity (queued requests of
     *                        class c across all shards; 0 = bounded
     *                        only by the global capacity). Keeps a
     *                        Background flood from crowding
     *                        Interactive out of the queue.
     */
    Scheduler(std::size_t queue_capacity, unsigned num_threads,
              unsigned num_shards = 1,
              core::metrics::Registry *registry = nullptr,
              const std::array<std::size_t, kNumPriorities>
                  &class_capacity = {});

    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit one request. Fails (nullopt) when the queue is at
     * capacity or the scheduler is shutting down.
     *
     * @param deadline relative to now; the request is retired as
     *        Expired if a worker would start or continue it after
     *        submit time + deadline.
     * @param priority admission class (see Priority).
     * @param placement_key 0 = place by ticket id (uniform spread);
     *        any other value is hashed so equal keys land on equal
     *        shards (client/session affinity).
     * @param shard_out when non-null, receives the placement shard —
     *        the caller (AsyncPipeline) needs it to enqueue the
     *        executor task without re-locking.
     */
    std::optional<Ticket>
    trySubmit(std::shared_ptr<const data::PointCloud> cloud,
              const BatchRequest &request,
              std::optional<Clock::duration> deadline,
              Priority priority = Priority::Interactive,
              std::uint64_t placement_key = 0,
              unsigned *shard_out = nullptr);

    /** Like trySubmit, but blocks until queue space frees up. Fails
     *  only when the scheduler shuts down while waiting. */
    std::optional<Ticket>
    submitBlocking(std::shared_ptr<const data::PointCloud> cloud,
                   const BatchRequest &request,
                   std::optional<Clock::duration> deadline,
                   Priority priority = Priority::Interactive,
                   std::uint64_t placement_key = 0,
                   unsigned *shard_out = nullptr);

    /**
     * Pop the best queued request of @p shard (must be non-empty:
     * one executor task exists per request admitted to the shard).
     * Aging credits are charged and the winning class's head is
     * popped. Returns the job to run, or nullopt when that request
     * was already cancelled or past its deadline — the record is
     * retired (Cancelled/Expired) and the executor has nothing to do.
     */
    std::optional<Job> acquire(unsigned shard = 0);

    /**
     * Mid-run probe, called between stages of a Running request.
     * Returns true to continue; false means the request was just
     * retired (Cancelled or Expired) and the executor must stop.
     *
     * When continuing and @p spill_shard is non-null, the
     * work-conserving decision is re-evaluated from scratch into it
     * (see Job::spill_shard): a request acquired at saturation starts
     * spilling once capacity frees up anywhere, a borrowed neighbor is
     * released once it has work of its own, and a saturated pool stops
     * being fought over. Safe to change per stage — at a boundary
     * every chunk of the request has already joined.
     */
    bool checkpoint(std::uint64_t id, int *spill_shard = nullptr);

    /** Terminal transition: the request finished; its result is
     *  what the executor wrote through Job::result. */
    void complete(std::uint64_t id);

    /** Terminal transition: processing threw @p exception. */
    void fail(std::uint64_t id, std::exception_ptr exception);

    /**
     * Request cancellation. Queued work is retired when its executor
     * task pops it; running work stops at its next checkpoint().
     * Returns false when the request already reached a terminal
     * state (or the ticket was consumed by wait()).
     *
     * true means "cancellation requested", not "will not complete":
     * a request past its last stage checkpoint still retires Done,
     * so callers must branch on the terminal state from wait(), not
     * on cancel()'s return value.
     */
    bool cancel(Ticket ticket);

    /** True once the request is in a terminal state. */
    bool poll(Ticket ticket) const;

    /** Current state of a live (not yet wait()ed) ticket. */
    RequestState state(Ticket ticket) const;

    /**
     * Block until terminal, then consume the record and return its
     * outcome: waitInto() on a fresh RequestOutcome. Each ticket may
     * be waited exactly once.
     */
    RequestOutcome wait(Ticket ticket);

    /**
     * Block until terminal, then consume the record into @p out.
     * A Done record swaps its result with @p out's — O(1) while the
     * scheduler mutex is held, whatever the payload size — so @p out
     * leaves with the result's buffers and the record recycles holding
     * @p out's previous ones. Any other terminal state leaves
     * @p out.result untouched. A warm same-shape loop (submitShared ->
     * waitInto with a reused RequestOutcome) therefore performs zero
     * heap allocations end to end, whatever states its tickets end
     * in. No two owners ever share a buffer.
     */
    void waitInto(Ticket ticket, RequestOutcome &out);

    /**
     * Bounded wait: block up to @p timeout for the request to reach
     * a terminal state. On success the record is consumed exactly as
     * by wait(); on timeout returns nullopt and the ticket stays
     * live — the request keeps its queue position (or keeps
     * running), and the caller may wait again, cancel, or discard.
     */
    std::optional<RequestOutcome> waitFor(Ticket ticket,
                                          Clock::duration timeout);

    /**
     * Give up on a ticket without collecting its outcome: requests
     * still pending are flagged for cancellation, and the record is
     * reclaimed the moment it retires (immediately if already
     * terminal). A fire-and-forget or cancel-and-forget client must
     * call this (or wait()) for every ticket, or abandoned records
     * accumulate for the scheduler's lifetime. Idempotent; safe on
     * already-consumed tickets.
     */
    void discard(Ticket ticket);

    std::size_t queuedCount() const;
    std::size_t runningCount() const;

    /** Per-shard counters (serving telemetry, shard-balance tests). */
    std::size_t queuedCount(unsigned shard) const;
    std::size_t runningCount(unsigned shard) const;

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Records currently held (pending + terminal-but-uncollected);
     *  serving telemetry and leak tests read this. */
    std::size_t liveRecordCount() const;

    /** Records ever allocated (admissions that found no reclaimed
     *  node to reuse): the high-water mark of concurrently live
     *  tickets, and so of result payloads held. */
    std::size_t recordsCreated() const;

    /**
     * Reject new submissions, flag all queued requests for
     * cancellation, and block until no request is Queued or Running
     * (i.e. every executor task has retired its request). Called by
     * ~AsyncPipeline before the pools are destroyed.
     */
    void shutdown();

  private:
    struct Record
    {
        RequestState state = RequestState::Queued;
        bool cancel_requested = false;
        std::shared_ptr<const data::PointCloud> cloud;
        BatchRequest request;
        std::optional<Clock::time_point> deadline;
        RequestTiming timing;

        /** Written by the executor outside the mutex while Running
         *  (through Job::result), read by the consuming wait. */
        BatchResult result;
        std::string error;
        std::exception_ptr exception;
        Priority priority = Priority::Interactive;
        unsigned shard = 0;
        int spill_shard = -1;   ///< current spill pool (-1 = inline)
        bool spilled = false;   ///< spilled for at least one stage
        bool abandoned = false; ///< discard()ed; reclaim on retire

        /** Return to a just-constructed state while KEEPING the
         *  capacity of request, result, and error — recycled records
         *  make the next admission allocation-free. */
        void
        reset()
        {
            state = RequestState::Queued;
            cancel_requested = false;
            cloud.reset();
            // `request` and `result` keep their buffers: the next
            // submit copy-assigns over them.
            deadline.reset();
            timing = RequestTiming{};
            error.clear();
            exception = nullptr;
            spill_shard = -1;
            spilled = false;
            abandoned = false;
        }
    };

    /** Queues, aging credits, and in-flight counters of one shard. */
    struct ShardState
    {
        std::array<core::Ring<std::uint64_t>, kNumPriorities> queues;
        std::array<std::uint64_t, kNumPriorities> credit{};
        std::size_t queued = 0;
        std::size_t running = 0;
    };

    /** Instruments of one (shard, class) cell; null without a
     *  registry. Mutated under mutex_ (the instruments themselves are
     *  lock-free; the lock is the scheduler's own). */
    struct ClassMetrics
    {
        core::metrics::Gauge *queue_depth = nullptr;
        core::metrics::Histogram *queue_depth_hist = nullptr;
        core::metrics::Histogram *wait_us = nullptr;
        core::metrics::Histogram *latency_us = nullptr;
        core::metrics::Counter *pops = nullptr;
        core::metrics::Counter *submitted = nullptr;
        core::metrics::Counter *completed = nullptr;
        core::metrics::Counter *expired = nullptr;
        core::metrics::Counter *cancelled = nullptr;
        core::metrics::Counter *failed = nullptr;
    };

    /** Per-shard instrument block. */
    struct ShardMetrics
    {
        std::array<ClassMetrics, kNumPriorities> classes;
        core::metrics::Counter *spill_same = nullptr;
        core::metrics::Counter *borrow_out = nullptr;
        core::metrics::Counter *borrow_in = nullptr;
    };

    /** Retire a non-terminal record as Cancelled/Expired/Done/Failed
     *  (mutex held). Drops the cloud reference, wakes waiters, and
     *  erases the record if it was abandoned — callers must not
     *  touch @p record afterwards. */
    void retireLocked(std::uint64_t id, Record &record,
                      RequestState state);

    /** Work-conserving target for a request on @p shard (mutex
     *  held): own shard if it has idle threads, else a FULLY idle
     *  other shard — the one with the fewest active borrowers,
     *  lowest index on ties — else -1. Merely under-loaded
     *  neighbors are never borrowed (see file comment: priority
     *  inversion). */
    int spillShardLocked(unsigned shard) const;

    /** Point @p record's spill target at @p target (mutex held),
     *  keeping the per-shard borrow counters and the ever-spilled
     *  flag in sync. Every spill_shard transition goes through
     *  here — acquire, checkpoint, and retirement. */
    void assignSpillLocked(Record &record, int target);

    /** Consume a terminal record into @p out (mutex held): a Done
     *  record swaps its result with @p out's (O(1) under the mutex;
     *  both keep warm buffers), any other state leaves @p out.result
     *  alone. Then the record is reclaimed. */
    void consumeIntoLocked(std::uint64_t id, Record &record,
                           RequestOutcome &out);

    /** Take @p id's record out of the ledger (mutex held): reset()
     *  it capacity-retaining and stash the map node for the next
     *  admission. Every record leaving records_ goes through here —
     *  warm steady state never touches the map's allocator. */
    void reclaimRecordLocked(std::uint64_t id);

    const Record &recordFor(Ticket ticket) const;

    mutable std::mutex mutex_;

    /** One CV for every sleeper: ticket waiters, blocking submitters,
     *  and shutdown(). Transitions are rare next to the work each
     *  request performs, so sharing costs nothing measurable. */
    mutable std::condition_variable cv_;

    const std::size_t capacity_;
    const unsigned num_threads_;

    /** Per-class admission bounds (0 = global bound only). */
    const std::array<std::size_t, kNumPriorities> class_capacity_;

    /** Queued requests per class, summed over shards (the counters
     *  the class bounds compare against). */
    std::array<std::size_t, kNumPriorities> class_queued_{};

    /** Per-class admission rejections due to a class bound; null
     *  without a registry. */
    std::array<core::metrics::Counter *, kNumPriorities>
        rejected_class_{};

    core::ShardMap shard_map_;
    std::vector<ShardState> shards_;

    /** One instrument block per shard; empty without a registry. */
    std::vector<ShardMetrics> metrics_;

    /** Active cross-shard borrowers per shard (requests currently
     *  spilling their chunks onto it from another shard); spreads
     *  concurrent borrows over idle shards instead of piling them
     *  onto the lowest index. */
    std::vector<std::size_t> borrows_;

    std::uint64_t next_id_ = 1;
    std::unordered_map<std::uint64_t, Record> records_;

    /** Reclaimed map nodes (capacity-retaining Records inside);
     *  trySubmit re-keys and re-inserts these instead of allocating.
     *  Depth tracks the high-water mark of concurrently live
     *  tickets. */
    std::vector<std::unordered_map<std::uint64_t, Record>::node_type>
        record_nodes_;

    /** Map nodes ever allocated (see recordsCreated()). */
    std::size_t records_created_ = 0;

    std::size_t queued_ = 0;
    std::size_t running_ = 0;
    bool shutdown_ = false;
};

} // namespace fc::serve

#endif // FC_SERVE_SCHEDULER_H
