#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/alloc_count.h"

namespace e2e {

using namespace fc;

namespace {

/** Interactive requests not started within this budget expire and
 *  count as failures. */
constexpr auto kInteractiveDeadline = std::chrono::milliseconds(500);

/** Open-loop poll period: the generator's resolution when observing
 *  completions (bounds how late waitInto can return after finish). */
constexpr std::int64_t kPollNs = 100'000;

/** A client checks its first request and about one in kCheckEvery
 *  after it, at most kMaxChecks per phase (each check is a full byte
 *  comparison, which the closed loop pays between requests). */
constexpr std::uint64_t kCheckEvery = 16;
constexpr std::size_t kMaxChecks = 8;

/** Bulk ingestion may queue at most this many blocks, so interactive
 *  trySubmit always finds room in the shared admission queue. */
constexpr std::size_t kBatchQueueCap = 8;

/** Closed-loop clients: one per serving thread. With as many requests
 *  in flight as threads the scheduler does not spill, so a request runs
 *  on one worker and never waits at a fork-join barrier for a thread
 *  another tenant of the host has descheduled. */
unsigned
closedLoopClients(const Config &config)
{
    return config.kind == Kind::Ingest ? 1 : servingThreads();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
ms(serve::Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

bool
shouldCheck(std::uint64_t seed, std::uint64_t stream, std::uint64_t k,
            std::size_t checked)
{
    if (checked >= kMaxChecks)
        return false;
    return k == 0 ||
           splitmix(seed * 0x9e37ULL + stream * 1000003ULL + k) %
                   kCheckEvery ==
               0;
}

/** Count @p out's terminal state, completed at @p t_ns into the
 *  phase; true when Done. */
bool
record(const serve::RequestOutcome &out, std::int64_t t_ns, Phase &ph)
{
    switch (out.state) {
      case serve::RequestState::Done:
        ++ph.completed;
        ph.done.push_back({t_ns, 1.0});
        ph.served.push_back(
            {ms(out.timing.started - out.timing.submitted),
             ms(out.timing.finished - out.timing.started), out.priority,
             out.spilled});
        return true;
      case serve::RequestState::Expired:
        ++ph.expired;
        return false;
      case serve::RequestState::Cancelled:
        ++ph.cancelled;
        return false;
      default:
        ++ph.failed;
        return false;
    }
}

void
check(const BatchResult &served, const BatchResult &ref, Phase &ph)
{
    ++ph.checked;
    if (!sameResult(served, ref))
        ++ph.mismatches;
}

/** Closed loop of one client: submit, wait, repeat. */
void
closedLoop(const Target &t, unsigned client, unsigned clients,
           std::int64_t start, std::int64_t end, Phase &ph, SpanLog *log)
{
    serve::AsyncPipeline &pipe = *t.server.pipeline;
    const BatchRequest request =
        requestFor(t.config, t.server.network.get());
    const std::size_t n = t.inputs.clouds.size();
    serve::RequestOutcome out; // reused: waitInto keeps its capacity
    for (std::uint64_t k = 0;; ++k) {
        const std::int64_t t0 = nowNs();
        if (t0 >= end)
            break;
        const std::size_t idx = (client + k * clients) % n;
        const std::uint64_t rid = (std::uint64_t{client} << 32) | k;
        ++ph.attempted;
        {
            Scope root(log, "loadgen.request", kNoParent, rid);
            serve::Ticket ticket;
            {
                Scope s(log, "serve.submitShared", root.id(), rid);
                ticket = pipe.submitShared(t.inputs.clouds[idx], request);
            }
            Scope s(log, "serve.waitInto", root.id(), rid);
            pipe.waitInto(ticket, out);
        }
        const std::int64_t t1 = nowNs();
        ph.wall_s = static_cast<double>(t1 - start) * 1e-9;
        if (!record(out, t1 - start, ph))
            continue;
        ph.latency.push_back(
            {t1 - start, static_cast<double>(t1 - t0) * 1e-6});
        ph.points.push_back(
            {t1 - start,
             static_cast<double>(t.inputs.clouds[idx]->size())});
        if (shouldCheck(t.seed, client, k, ph.checked))
            check(out.result, t.refs[idx], ph);
    }
}

/** Open loop: send at fixed due times whatever completes; each
 *  request is timed from its due time. */
void
openLoop(const Target &t, std::int64_t start, std::int64_t end, Phase &ph,
         SpanLog *log)
{
    serve::AsyncPipeline &pipe = *t.server.pipeline;
    const BatchRequest request = requestFor(t.config, nullptr);
    const std::size_t n = t.inputs.clouds.size();
    const auto period =
        static_cast<std::int64_t>(1e9 / t.config.rate_rps);
    struct Pending
    {
        serve::Ticket ticket;
        std::int64_t due;
        std::uint64_t k;
        std::uint32_t root;
    };
    std::vector<Pending> pending;
    pending.reserve(1024);
    serve::RequestOutcome out;
    std::uint64_t k = 0;
    for (;;) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(k) * period;
        std::int64_t now = nowNs();
        if (due < end && now >= due) {
            ++ph.attempted;
            ph.lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
            const std::uint32_t root =
                log != nullptr ? log->begin("loadgen.request", kNoParent, k)
                               : kNoParent;
            std::optional<serve::Ticket> ticket;
            {
                Scope s(log, "serve.trySubmitShared", root, k);
                ticket = pipe.trySubmitShared(
                    t.inputs.clouds[k % n], request, kInteractiveDeadline,
                    serve::Priority::Interactive);
            }
            if (ticket) {
                pending.push_back({*ticket, due, k, root});
            } else {
                ++ph.rejected;
                if (log != nullptr)
                    log->end(root);
            }
            ++k;
            continue;
        }
        for (std::size_t i = 0; i < pending.size();) {
            if (!pipe.poll(pending[i].ticket)) {
                ++i;
                continue;
            }
            const Pending p = pending[i];
            pending[i] = pending.back();
            pending.pop_back();
            {
                Scope s(log, "serve.waitInto", p.root, p.k);
                pipe.waitInto(p.ticket, out);
            }
            const std::int64_t t1 = nowNs();
            if (log != nullptr)
                log->end(p.root);
            ph.wall_s = std::max(ph.wall_s,
                                 static_cast<double>(t1 - start) * 1e-9);
            if (!record(out, t1 - start, ph))
                continue;
            const std::size_t idx = p.k % n;
            ph.latency.push_back(
                {t1 - start, static_cast<double>(t1 - p.due) * 1e-6});
            if (shouldCheck(t.seed, 1000, p.k, ph.checked))
                check(out.result, t.refs[idx], ph);
        }
        if (due >= end && pending.empty())
            break;
        now = nowNs();
        std::int64_t wake = now + kPollNs;
        if (due < end)
            wake = std::min(wake, due);
        if (wake > now)
            std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
}

/** Bulk ingestion: StorageIngestor::runAll passes back to back. */
void
ingestLoop(const Target &t, std::int64_t start, std::int64_t end,
           Phase &ph, SpanLog *log)
{
    const BatchRequest request = requestFor(t.config, nullptr);
    for (std::uint64_t pass = 0; nowNs() < end; ++pass) {
        std::vector<serve::IngestResult> results;
        {
            Scope s(log, "serve.StorageIngestor.runAll", kNoParent, pass);
            results = t.server.ingestor->runAll(request);
        }
        const std::int64_t t1 = nowNs();
        for (std::size_t i = 0; i < results.size(); ++i) {
            ++ph.attempted;
            if (results[i].storage_status != storage::FcpcStatus::Ok) {
                ++ph.failed;
                continue;
            }
            const std::int64_t finished =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    results[i].outcome.timing.finished.time_since_epoch())
                    .count() -
                start;
            if (!record(results[i].outcome, finished, ph))
                continue;
            ph.points.push_back(
                {finished, static_cast<double>(t.inputs.blocks[i].size())});
            if (shouldCheck(t.seed, 2000 + pass, i, ph.checked))
                check(results[i].outcome.result, t.block_refs[i], ph);
        }
        ph.wall_s =
            std::max(ph.wall_s, static_cast<double>(t1 - start) * 1e-9);
    }
}

} // namespace

void
Phase::merge(const Phase &o)
{
    latency.insert(latency.end(), o.latency.begin(), o.latency.end());
    done.insert(done.end(), o.done.begin(), o.done.end());
    points.insert(points.end(), o.points.begin(), o.points.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    served.insert(served.end(), o.served.begin(), o.served.end());
    attempted += o.attempted;
    completed += o.completed;
    rejected += o.rejected;
    expired += o.expired;
    cancelled += o.cancelled;
    failed += o.failed;
    mismatches += o.mismatches;
    checked += o.checked;
    wall_s = std::max(wall_s, o.wall_s);
}

std::unique_ptr<Server>
setUp(const Config &config, const Inputs &inputs)
{
    auto s = std::make_unique<Server>();
    s->network = makeNetwork(config);
    serve::ServeOptions options;
    options.num_shards = config.shards;
    options.pipeline.num_threads =
        std::max(1u, servingThreads() / config.shards);
    options.class_capacity[static_cast<std::size_t>(
        serve::Priority::Batch)] = kBatchQueueCap;
    s->pipeline = std::make_unique<serve::AsyncPipeline>(options);
    const BatchRequest request = requestFor(config, s->network.get());

    if (config.kind == Kind::Ingest) {
        s->reader = std::make_shared<storage::FcpcReader>();
        const std::int64_t t0 = nowNs();
        const storage::FcpcStatus status =
            s->reader->open(inputs.fcpc_path);
        s->open_ms = static_cast<double>(nowNs() - t0) * 1e-6;
        if (status != storage::FcpcStatus::Ok)
            throw std::runtime_error("cannot open " + inputs.fcpc_path +
                                     ": " +
                                     storage::fcpcStatusName(status));
        s->ingestor = std::make_unique<serve::StorageIngestor>(
            *s->pipeline, s->reader);
        for (const serve::IngestResult &r : s->ingestor->runAll(request))
            if (r.storage_status != storage::FcpcStatus::Ok ||
                r.outcome.state != serve::RequestState::Done)
                throw std::runtime_error("warm-up ingestion failed");
    }

    // Rounds of `concurrency` simultaneous requests until a round
    // creates no new workspace: every executor then holds a warm one.
    const unsigned concurrency = closedLoopClients(config);
    std::size_t last = 0;
    serve::RequestOutcome out;
    std::vector<serve::Ticket> tickets;
    for (unsigned round = 0; round < 8; ++round) {
        tickets.clear();
        for (unsigned c = 0; c < concurrency; ++c)
            tickets.push_back(s->pipeline->submitShared(
                inputs.clouds[c % inputs.clouds.size()], request));
        for (const serve::Ticket ticket : tickets) {
            s->pipeline->waitInto(ticket, out);
            if (out.state != serve::RequestState::Done)
                throw std::runtime_error(
                    std::string("warm-up request ended ") +
                    serve::stateName(out.state));
        }
        const std::size_t created = s->pipeline->workspacesCreated();
        if (round > 0 && created == last)
            break;
        last = created;
    }
    return s;
}

Phase
runPhase(const Target &t, double seconds,
         std::vector<std::unique_ptr<SpanLog>> *logs)
{
    const bool ingest = t.config.kind == Kind::Ingest;
    const unsigned clients = ingest ? 2 : closedLoopClients(t.config);
    std::vector<Phase> parts(clients);
    std::vector<SpanLog *> log_of(clients, nullptr);
    for (unsigned c = 0; c < clients; ++c) {
        // Sized up front so the measured loops never allocate.
        parts[c].latency.reserve(1 << 16);
        parts[c].done.reserve(1 << 17);
        parts[c].points.reserve(1 << 17);
        parts[c].lag_ms.reserve(1 << 16);
        parts[c].served.reserve(1 << 17);
        if (logs != nullptr) {
            logs->push_back(std::make_unique<SpanLog>(1 << 16));
            log_of[c] = logs->back().get();
        }
    }

    std::atomic<bool> go{false};
    std::atomic<unsigned> ready{0}, done{0};
    std::atomic<std::int64_t> start_ns{0};
    const auto span = static_cast<std::int64_t>(seconds * 1e9);
    const auto body = [&](unsigned c) {
        ready.fetch_add(1);
        while (!go.load())
            std::this_thread::yield();
        const std::int64_t start = start_ns.load();
        if (!ingest)
            closedLoop(t, c, clients, start, start + span, parts[c],
                       log_of[c]);
        else if (c == 0)
            ingestLoop(t, start, start + span, parts[c], log_of[c]);
        else
            openLoop(t, start, start + span, parts[c], log_of[c]);
        done.fetch_add(1);
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back(body, c);
    while (ready.load() < clients)
        std::this_thread::yield();

    // CPU and allocation counts cover exactly the measured loops:
    // thread creation is before, joining after.
    const double cpu0 = processCpuSeconds();
    const std::uint64_t allocs0 = heapAllocCount();
    start_ns.store(nowNs());
    go.store(true);
    while (done.load() < clients)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const double cpu1 = processCpuSeconds();
    const std::uint64_t allocs1 = heapAllocCount();
    for (std::thread &th : threads)
        th.join();

    Phase out;
    for (const Phase &p : parts)
        out.merge(p);
    out.span_ns = span;
    out.cpu_s = cpu1 - cpu0;
    out.allocs = allocs1 - allocs0;
    return out;
}

} // namespace e2e
