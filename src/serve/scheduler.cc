#include "serve/scheduler.h"

#include <utility>

#include "common/logging.h"

namespace fc::serve {

const char *
stateName(RequestState state)
{
    switch (state) {
      case RequestState::Queued:
        return "queued";
      case RequestState::Running:
        return "running";
      case RequestState::Done:
        return "done";
      case RequestState::Cancelled:
        return "cancelled";
      case RequestState::Expired:
        return "expired";
      case RequestState::Failed:
        return "failed";
    }
    return "unknown";
}

bool
isTerminal(RequestState state)
{
    return state != RequestState::Queued &&
           state != RequestState::Running;
}

const char *
priorityName(Priority priority)
{
    switch (priority) {
      case Priority::Interactive:
        return "interactive";
      case Priority::Batch:
        return "batch";
      case Priority::Background:
        return "background";
    }
    return "unknown";
}

namespace {

/** Microseconds between two steady-clock points (never negative). */
std::uint64_t
usBetween(Clock::time_point from, Clock::time_point to)
{
    if (to <= from)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
}

/** "serve.<base>{shard=<s>,class=<name>}" — the registry's flat-name
 *  label convention, built once per instrument at registration. */
std::string
cellName(const char *base, unsigned shard, unsigned cls)
{
    std::string name = "serve.";
    name += base;
    name += "{shard=";
    name += std::to_string(shard);
    name += ",class=";
    name += priorityName(static_cast<Priority>(cls));
    name += '}';
    return name;
}

std::string
shardName(const char *base, unsigned shard)
{
    std::string name = "serve.";
    name += base;
    name += "{shard=";
    name += std::to_string(shard);
    name += '}';
    return name;
}

} // namespace

Scheduler::Scheduler(
    std::size_t queue_capacity, unsigned num_threads,
    bool work_conserving, unsigned num_shards,
    core::metrics::Registry *registry,
    const std::array<std::size_t, kNumPriorities> &class_capacity)
    : capacity_(queue_capacity), num_threads_(num_threads),
      work_conserving_(work_conserving),
      class_capacity_(class_capacity), shard_map_(num_shards),
      shards_(num_shards), borrows_(num_shards, 0)
{
    fc_assert(capacity_ > 0, "scheduler needs a positive capacity");
    fc_assert(num_threads_ > 0, "scheduler needs a positive pool size");
    fc_assert(num_shards >= 1, "scheduler needs at least one shard");
    if (registry == nullptr)
        return;

    // Register the full instrument matrix up front: every later
    // mutation is a pointer dereference, no name lookups (and no
    // allocations) on the serving path.
    metrics_.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
        ShardMetrics &sm = metrics_[s];
        for (unsigned c = 0; c < kNumPriorities; ++c) {
            ClassMetrics &cm = sm.classes[c];
            cm.queue_depth =
                &registry->gauge(cellName("queue_depth", s, c));
            cm.queue_depth_hist =
                &registry->histogram(cellName("queue_depth_hist", s, c));
            cm.wait_us = &registry->histogram(cellName("wait_us", s, c));
            cm.latency_us =
                &registry->histogram(cellName("latency_us", s, c));
            cm.pops = &registry->counter(cellName("pops", s, c));
            cm.submitted =
                &registry->counter(cellName("submitted", s, c));
            cm.completed =
                &registry->counter(cellName("completed", s, c));
            cm.expired = &registry->counter(cellName("expired", s, c));
            cm.cancelled =
                &registry->counter(cellName("cancelled", s, c));
            cm.failed = &registry->counter(cellName("failed", s, c));
        }
        sm.spill_same = &registry->counter(shardName("spill_same", s));
        sm.borrow_out = &registry->counter(shardName("borrow_out", s));
        sm.borrow_in = &registry->counter(shardName("borrow_in", s));
    }
    // Per-class admission bounds and their rejection counters
    // (global, not per shard: a class bound is checked before
    // placement matters).
    for (unsigned c = 0; c < kNumPriorities; ++c) {
        const std::string cls =
            priorityName(static_cast<Priority>(c));
        rejected_class_[c] = &registry->counter(
            "serve.rejected_class{class=" + cls + "}");
        registry->gauge("serve.class_capacity{class=" + cls + "}")
            .forceSet(static_cast<std::int64_t>(class_capacity_[c]));
    }
}

Scheduler::~Scheduler()
{
    // AsyncPipeline::~AsyncPipeline calls shutdown() first; a bare
    // Scheduler (unit tests) has no executors to wait for, but any
    // still-live request here would mean a protocol violation.
    fc_assert(running_ == 0,
              "scheduler destroyed with %zu requests running",
              running_);
}

std::optional<Ticket>
Scheduler::trySubmit(std::shared_ptr<const data::PointCloud> cloud,
                     const BatchRequest &request,
                     std::optional<Clock::duration> deadline,
                     Priority priority, std::uint64_t placement_key,
                     unsigned *shard_out)
{
    fc_assert(cloud != nullptr && !cloud->empty(),
              "serve requests need a non-empty cloud");
    fc_assert(request.neighbors > 0, "serve requests need neighbors > 0");
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || queued_ >= capacity_)
        return std::nullopt;
    const unsigned cls = static_cast<unsigned>(priority);
    // Per-class bound, layered on the global one: a Background flood
    // fills its own allowance and bounces, leaving Interactive's
    // share of the queue free.
    if (class_capacity_[cls] != 0 &&
        class_queued_[cls] >= class_capacity_[cls]) {
        if (rejected_class_[cls] != nullptr)
            rejected_class_[cls]->add();
        return std::nullopt;
    }

    const Clock::time_point now = Clock::now();
    const std::uint64_t id = next_id_++;
    // Consistent-hash placement: ticket id by default (uniform
    // spread), caller key for affinity. A 1-shard map short-circuits
    // to shard 0 — the PR 2 path.
    const unsigned shard = shard_map_.shardFor(
        placement_key != 0 ? placement_key : id);

    // Recycle a reclaimed map node when one exists: re-keying and
    // re-inserting reuses both the node and the Record's buffers
    // (result payload included), so warm admission never touches the
    // heap.
    Record *slot_record;
    if (!record_nodes_.empty()) {
        auto nh = std::move(record_nodes_.back());
        record_nodes_.pop_back();
        nh.key() = id;
        slot_record = &records_.insert(std::move(nh)).position->second;
    } else {
        slot_record = &records_[id];
        ++records_created_;
    }
    Record &record = *slot_record;
    record.cloud = std::move(cloud);
    record.request = request;
    if (deadline)
        record.deadline = now + *deadline;
    record.timing.submitted = now;
    record.priority = priority;
    record.shard = shard;

    ShardState &st = shards_[shard];
    st.queues[cls].push_back(id);
    ++st.queued;
    ++queued_;
    ++class_queued_[cls];
    if (!metrics_.empty()) {
        ClassMetrics &cm = metrics_[shard].classes[cls];
        cm.submitted->add();
        const std::uint64_t depth = st.queues[cls].size();
        cm.queue_depth->set(static_cast<std::int64_t>(depth));
        cm.queue_depth_hist->record(depth);
    }
    if (shard_out != nullptr)
        *shard_out = shard;
    return Ticket{id};
}

std::optional<Ticket>
Scheduler::submitBlocking(std::shared_ptr<const data::PointCloud> cloud,
                          const BatchRequest &request,
                          std::optional<Clock::duration> deadline,
                          Priority priority, std::uint64_t placement_key,
                          unsigned *shard_out)
{
    // A freed slot can be stolen between the wait and trySubmit;
    // loop until admission sticks (rare: only other submitters
    // compete).
    for (;;) {
        std::optional<Ticket> ticket =
            trySubmit(cloud, request, deadline, priority,
                      placement_key, shard_out);
        if (ticket)
            return ticket;
        std::unique_lock<std::mutex> lock(mutex_);
        if (shutdown_)
            return std::nullopt;
        const unsigned cls = static_cast<unsigned>(priority);
        cv_.wait(lock, [this, cls] {
            return shutdown_ ||
                   (queued_ < capacity_ &&
                    (class_capacity_[cls] == 0 ||
                     class_queued_[cls] < class_capacity_[cls]));
        });
    }
}

void
Scheduler::retireLocked(std::uint64_t id, Record &record,
                        RequestState state)
{
    assignSpillLocked(record, -1); // release any cross-shard borrow
    record.state = state;
    record.timing.finished = Clock::now();
    if (record.timing.started == Clock::time_point{})
        record.timing.started = record.timing.finished;
    if (!metrics_.empty()) {
        ClassMetrics &cm =
            metrics_[record.shard]
                .classes[static_cast<unsigned>(record.priority)];
        switch (state) {
          case RequestState::Done:
            cm.completed->add();
            cm.latency_us->record(usBetween(record.timing.submitted,
                                            record.timing.finished));
            break;
          case RequestState::Expired:
            cm.expired->add();
            break;
          case RequestState::Cancelled:
            cm.cancelled->add();
            break;
          case RequestState::Failed:
            cm.failed->add();
            break;
          default:
            break;
        }
    }
    record.cloud.reset(); // free the input as soon as possible
    if (record.abandoned)
        reclaimRecordLocked(id); // discard()ed: nobody will wait()
    cv_.notify_all();
}

int
Scheduler::spillShardLocked(unsigned shard) const
{
    if (!work_conserving_)
        return -1;
    const auto inflight = [this](unsigned s) {
        return shards_[s].queued + shards_[s].running;
    };
    // Own shard first: with fewer requests in flight than threads,
    // whole requests cannot saturate it, so this request should fan
    // its block items out onto the idle slots.
    if (inflight(shard) < num_threads_)
        return static_cast<int>(shard);
    // Cross-shard borrow: only a FULLY idle neighbor. A merely
    // under-loaded neighbor is never borrowed: its workers prefer
    // the fork/join lane, so foreign chunks would run ahead of its
    // own queued requests — a priority inversion against whatever
    // class waits there. Idle shards have nothing to invert, and
    // the decision is re-evaluated at every stage boundary, so a
    // borrow ends one stage after the neighbor receives work of its
    // own. Among idle shards, take the one with the fewest active
    // borrowers (lowest index on ties) — request in-flight counters
    // don't see borrowed chunks, so without this concurrent
    // borrowers would all pile onto the lowest index.
    int best = -1;
    std::size_t best_borrows = 0;
    for (unsigned t = 0; t < shards_.size(); ++t) {
        if (t == shard || inflight(t) != 0)
            continue;
        if (best < 0 || borrows_[t] < best_borrows) {
            best = static_cast<int>(t);
            best_borrows = borrows_[t];
        }
    }
    return best;
}

void
Scheduler::assignSpillLocked(Record &record, int target)
{
    if (record.spill_shard == target)
        return;
    const int home = static_cast<int>(record.shard);
    if (record.spill_shard >= 0 && record.spill_shard != home)
        --borrows_[record.spill_shard];
    record.spill_shard = target;
    if (target >= 0 && target != home)
        ++borrows_[target];
    record.spilled = record.spilled || target >= 0;
    if (!metrics_.empty() && target >= 0) {
        // Spill/borrow telemetry counts TRANSITIONS onto a target
        // (the early-return above dedups per-stage re-decisions that
        // kept the same target): same-shard fan-out on the home
        // shard, cross-shard borrows on both ends.
        if (target == home) {
            metrics_[record.shard].spill_same->add();
        } else {
            metrics_[record.shard].borrow_out->add();
            metrics_[static_cast<unsigned>(target)].borrow_in->add();
        }
    }
}

std::optional<Scheduler::Job>
Scheduler::acquire(unsigned shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    fc_assert(shard < shards_.size(), "acquire on unknown shard %u",
              shard);
    ShardState &st = shards_[shard];
    fc_assert(st.queued > 0,
              "acquire with no queued request on shard %u "
              "(task/record mismatch)",
              shard);

    // Weighted aging: every non-empty class earns its weight per
    // pop; the richest class wins (ties to the more interactive
    // one) and its credit resets. Classes whose queue drained reset
    // too — credit models the waiting requests, not the class.
    unsigned chosen = 0;
    std::uint64_t best_credit = 0;
    bool have = false;
    for (unsigned c = 0; c < kNumPriorities; ++c) {
        if (st.queues[c].empty()) {
            st.credit[c] = 0;
            continue;
        }
        st.credit[c] += kPriorityWeight[c];
        if (!have || st.credit[c] > best_credit) {
            have = true;
            chosen = c;
            best_credit = st.credit[c];
        }
    }
    fc_assert(have, "shard %u queued counter out of sync", shard);
    st.credit[chosen] = 0;

    const std::uint64_t id = st.queues[chosen].front();
    st.queues[chosen].pop_front();
    --st.queued;
    --queued_;
    --class_queued_[chosen];
    if (!metrics_.empty()) {
        ClassMetrics &cm = metrics_[shard].classes[chosen];
        cm.pops->add();
        cm.queue_depth->set(
            static_cast<std::int64_t>(st.queues[chosen].size()));
    }
    cv_.notify_all(); // queue space freed for blocking submitters

    Record &record = records_.at(id);
    const Clock::time_point now = Clock::now();
    if (record.cancel_requested) {
        retireLocked(id, record, RequestState::Cancelled);
        return std::nullopt;
    }
    if (record.deadline && now > *record.deadline) {
        retireLocked(id, record, RequestState::Expired);
        return std::nullopt;
    }

    record.state = RequestState::Running;
    record.timing.started = now;
    ++st.running;
    ++running_;
    if (!metrics_.empty())
        metrics_[shard]
            .classes[static_cast<unsigned>(record.priority)]
            .wait_us->record(usBetween(record.timing.submitted, now));
    assignSpillLocked(record, spillShardLocked(shard));

    Job job;
    job.id = id;
    job.cloud = record.cloud;
    job.request = record.request;
    job.shard = shard;
    job.spill_shard = record.spill_shard;
    job.result = &record.result;
    return job;
}

bool
Scheduler::checkpoint(std::uint64_t id, int *spill_shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Record &record = records_.at(id);
    fc_assert(record.state == RequestState::Running,
              "checkpoint on a request in state %s",
              stateName(record.state));
    if (record.cancel_requested) {
        --shards_[record.shard].running;
        --running_;
        retireLocked(id, record, RequestState::Cancelled);
        return false;
    }
    if (record.deadline && Clock::now() > *record.deadline) {
        --shards_[record.shard].running;
        --running_;
        retireLocked(id, record, RequestState::Expired);
        return false;
    }
    if (spill_shard != nullptr) {
        // Re-evaluate the work-conserving decision from scratch: at
        // a stage boundary every TaskGroup has joined, so no chunk
        // of this request is in flight anywhere and the target can
        // change freely. Capacity freed since the last stage — here
        // or on a neighbor — gets filled; a borrowed neighbor that
        // received its own work is released; a pool that saturated
        // stops being fought over.
        assignSpillLocked(record, spillShardLocked(record.shard));
        *spill_shard = record.spill_shard;
    }
    return true;
}

void
Scheduler::complete(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Record &record = records_.at(id);
    fc_assert(record.state == RequestState::Running,
              "complete on a request in state %s",
              stateName(record.state));
    --shards_[record.shard].running;
    --running_;
    retireLocked(id, record, RequestState::Done);
}

void
Scheduler::fail(std::uint64_t id, std::exception_ptr exception)
{
    // Derive the message outside the lock (rethrowing is the only
    // portable way to read an exception_ptr).
    std::string error = "unknown exception";
    try {
        std::rethrow_exception(exception);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
    }

    std::lock_guard<std::mutex> lock(mutex_);
    Record &record = records_.at(id);
    fc_assert(record.state == RequestState::Running,
              "fail on a request in state %s", stateName(record.state));
    record.error = std::move(error);
    record.exception = exception;
    --shards_[record.shard].running;
    --running_;
    retireLocked(id, record, RequestState::Failed);
}

bool
Scheduler::cancel(Ticket ticket)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(ticket.id);
    if (it == records_.end() || isTerminal(it->second.state))
        return false;
    it->second.cancel_requested = true;
    return true;
}

const Scheduler::Record &
Scheduler::recordFor(Ticket ticket) const
{
    auto it = records_.find(ticket.id);
    fc_assert(it != records_.end(),
              "unknown or already-consumed ticket %llu",
              static_cast<unsigned long long>(ticket.id));
    return it->second;
}

bool
Scheduler::poll(Ticket ticket) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return isTerminal(recordFor(ticket).state);
}

RequestState
Scheduler::state(Ticket ticket) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recordFor(ticket).state;
}

void
Scheduler::consumeIntoLocked(std::uint64_t id, Record &record,
                             RequestOutcome &out)
{
    out.state = record.state;
    // Exchange buffers, not bytes: O(1) under the mutex every
    // worker's checkpoint waits on. The caller takes the result's
    // buffers and the record recycles with the caller's previous
    // ones, warm for the next request. A request that did not finish
    // has no result to hand over, and the caller keeps its buffers.
    if (record.state == RequestState::Done)
        std::swap(out.result, record.result);
    out.error = std::move(record.error);
    out.exception = record.exception;
    out.timing = record.timing;
    out.priority = record.priority;
    out.shard = record.shard;
    out.spilled = record.spilled;
    reclaimRecordLocked(id);
}

void
Scheduler::reclaimRecordLocked(std::uint64_t id)
{
    auto nh = records_.extract(id);
    fc_assert(!nh.empty(), "reclaim of unknown record %llu",
              static_cast<unsigned long long>(id));
    nh.mapped().reset();
    record_nodes_.push_back(std::move(nh));
}

RequestOutcome
Scheduler::wait(Ticket ticket)
{
    RequestOutcome outcome;
    waitInto(ticket, outcome);
    return outcome;
}

void
Scheduler::waitInto(Ticket ticket, RequestOutcome &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = records_.find(ticket.id);
    fc_assert(it != records_.end(),
              "wait on unknown or already-consumed ticket %llu",
              static_cast<unsigned long long>(ticket.id));
    // Hold a pointer, not the iterator: concurrent submissions can
    // rehash records_ while we sleep, which invalidates iterators but
    // never element references (the map is node-based).
    Record *record = &it->second;
    cv_.wait(lock, [record] { return isTerminal(record->state); });
    consumeIntoLocked(ticket.id, *record, out);
}

std::optional<RequestOutcome>
Scheduler::waitFor(Ticket ticket, Clock::duration timeout)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = records_.find(ticket.id);
    fc_assert(it != records_.end(),
              "waitFor on unknown or already-consumed ticket %llu",
              static_cast<unsigned long long>(ticket.id));
    Record *record = &it->second;
    if (!cv_.wait_for(lock, timeout, [record] {
            return isTerminal(record->state);
        }))
        return std::nullopt; // still pending; the ticket stays live
    std::optional<RequestOutcome> outcome(std::in_place);
    consumeIntoLocked(ticket.id, *record, *outcome);
    return outcome;
}

void
Scheduler::discard(Ticket ticket)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(ticket.id);
    if (it == records_.end())
        return; // already consumed by wait() or a prior discard
    Record &record = it->second;
    if (isTerminal(record.state)) {
        reclaimRecordLocked(ticket.id);
        return;
    }
    record.cancel_requested = true; // stop undone work early
    record.abandoned = true;        // reclaim at retirement
}

std::size_t
Scheduler::liveRecordCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

std::size_t
Scheduler::recordsCreated() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_created_;
}

std::size_t
Scheduler::queuedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_;
}

std::size_t
Scheduler::runningCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

std::size_t
Scheduler::queuedCount(unsigned shard) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    fc_assert(shard < shards_.size(), "queuedCount on unknown shard %u",
              shard);
    return shards_[shard].queued;
}

std::size_t
Scheduler::runningCount(unsigned shard) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    fc_assert(shard < shards_.size(),
              "runningCount on unknown shard %u", shard);
    return shards_[shard].running;
}

void
Scheduler::shutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
    for (ShardState &st : shards_)
        for (const core::Ring<std::uint64_t> &queue : st.queues)
            for (std::size_t i = 0; i < queue.size(); ++i)
                records_.at(queue.at(i)).cancel_requested = true;
    cv_.notify_all();
    // Every queued request still has an executor task that will pop
    // (and then instantly retire) it; running ones finish or stop at
    // their next checkpoint. When both counters reach zero, no
    // executor task remains in any shard's pool queue.
    cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

} // namespace fc::serve
