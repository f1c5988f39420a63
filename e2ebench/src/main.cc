/**
 * @file
 * e2e_bench: the repository's end-to-end benchmark.
 *
 *   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--counter-seed <n>] [--work-dir <dir>]
 *
 * Builds the workload's inputs from the seed, computes the sequential
 * reference, sets the server up (several times, timing each), drives
 * the workload through serve::AsyncPipeline and prints one
 * `metric <name> <value> <unit> n=<samples>` line per metric, one
 * `counter ...` line per exact work counter and a closing `result`
 * line. With --trace 1 the measured time is split into an untraced and
 * a traced half, followed by a traced replay of the inputs through each
 * layer's public functions; the per-layer metrics, a self-time table
 * and a Chrome trace-event file come from those spans.
 * e2ebench/run.py builds this binary, gates the counters and prints
 * the result object.
 */

// Replaces the global allocation operators; this is the only
// translation unit of the binary that includes it.
#include "common/alloc_hook.h"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/simd.h"
#include "loadgen.h"
#include "replay.h"
#include "workloads.h"

namespace {

using namespace e2e;

/** Server set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::optional<std::uint64_t> counter_seed;
    std::string work_dir = ".bench_build/e2ebench/work";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value != "0";
        else if (key == "--counter-seed")
            args.counter_seed = std::stoull(value);
        else if (key == "--work-dir")
            args.work_dir = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::vector<double>
sorted(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
compilerTag()
{
#if defined(__clang__)
    return "clang-" __clang_version__;
#elif defined(__GNUC__)
    return "gcc-" __VERSION__;
#else
    return "unknown";
#endif
}

std::vector<const fc::data::PointCloud *>
pointersTo(const Inputs &in)
{
    std::vector<const fc::data::PointCloud *> out;
    for (const auto &c : in.clouds)
        out.push_back(c.get());
    return out;
}

std::vector<const fc::data::PointCloud *>
blockPointers(const Inputs &in)
{
    std::vector<const fc::data::PointCloud *> out;
    for (const fc::data::PointCloud &b : in.blocks)
        out.push_back(&b);
    return out;
}

/** References and their counters for (config, seed). */
struct Reference
{
    std::vector<fc::BatchResult> clouds;
    std::vector<fc::BatchResult> blocks;
    Counters counters;
};

Reference
referenceOf(const Config &config, const Inputs &in)
{
    // Same config and weight seed as the served network, so the
    // weights are identical.
    const std::unique_ptr<fc::nn::Network> network = makeNetwork(config);
    Reference ref;
    ref.clouds = referencesFor(pointersTo(in),
                               requestFor(config, network.get()));
    ref.blocks =
        referencesFor(blockPointers(in), requestFor(config, nullptr));
    for (const fc::BatchResult &r : ref.blocks)
        ref.counters.add(r);
    for (const fc::BatchResult &r : ref.clouds)
        ref.counters.add(r);
    return ref;
}

/** End-to-end numbers of one phase. */
struct EndToEnd
{
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double rps = 0.0;
    double points_per_s = 0.0;
    std::size_t windows = 0;
};

/**
 * Each metric is the median over equal time windows of the phase (about
 * 100 latency samples per window, so each window supports its own p90;
 * at most 10). A burst of host interference then moves the windows it
 * hits, not the reported median.
 */
EndToEnd
endToEnd(const Phase &ph)
{
    EndToEnd e;
    e.windows = std::clamp<std::size_t>(ph.latency.size() / 100, 1, 10);
    std::vector<double> p50, p90, rps, pps;
    for (const std::vector<Sample> &w :
         byWindow(ph.latency, ph.span_ns, e.windows)) {
        if (w.empty())
            continue;
        std::vector<double> v;
        for (const Sample &s : w)
            v.push_back(s.value);
        std::sort(v.begin(), v.end());
        p50.push_back(nearestRank(v, 50));
        p90.push_back(nearestRank(v, 90));
    }
    for (const std::vector<Sample> &w :
         byWindow(ph.done, ph.span_ns, e.windows))
        if (w.size() >= 2)
            rps.push_back(windowRate(w));
    for (const std::vector<Sample> &w :
         byWindow(ph.points, ph.span_ns, e.windows))
        if (w.size() >= 2)
            pps.push_back(windowRate(w));
    e.p50_ms = median(p50);
    e.p90_ms = median(p90);
    e.rps = median(rps);
    e.points_per_s = median(pps);
    return e;
}

void
printEndToEnd(const Phase &ph, double setup_s)
{
    const EndToEnd e = endToEnd(ph);
    const std::size_t n = ph.latency.size();
    printMetric("setup_s", setup_s, "s", kSetups);
    printMetric("latency_p50_ms", e.p50_ms, "ms", n);
    printMetric("latency_p90_ms", e.p90_ms, "ms", n);
    printMetric("throughput_rps", e.rps, "1/s", ph.done.size());
    printMetric("points_per_s", e.points_per_s, "1/s", ph.points.size());
    printMetric("error_rate",
                ph.attempted > 0 ? static_cast<double>(ph.errors()) /
                                       static_cast<double>(ph.attempted)
                                 : 0.0,
                "share", ph.attempted);
    printMetric("peak_rss_mb", peakRssMb(), "MB", 1);
    std::printf("latency samples %zu in %zu windows (medians over "
                "windows): highest supported percentile p%g per window "
                "(>= 10 samples beyond it)\n",
                n, e.windows, supportedPercentile(n / e.windows));
    std::printf("errors: rejected %zu expired %zu cancelled %zu failed %zu "
                "mismatched %zu (of %zu checked)\n",
                ph.rejected, ph.expired, ph.cancelled, ph.failed,
                ph.mismatches, ph.checked);
}

double
meanOf(const std::map<std::string, SpanTotals> &by, const char *name,
       double scale)
{
    const auto it = by.find(name);
    if (it == by.end() || it->second.count == 0)
        return 0.0;
    return static_cast<double>(it->second.wall_ns) /
           static_cast<double>(it->second.count) * scale;
}

std::size_t
countOf(const std::map<std::string, SpanTotals> &by, const char *name)
{
    const auto it = by.find(name);
    return it == by.end() ? 0 : it->second.count;
}

/** p50 queue wait of the served requests of @p priority, in ms. */
double
classWait(const Phase &ph, fc::serve::Priority priority, std::size_t &n)
{
    std::vector<double> waits;
    for (const Served &s : ph.served)
        if (s.priority == priority)
            waits.push_back(s.wait_ms);
    n = waits.size();
    return nearestRank(sorted(waits), 50);
}

void
printPerLayer(const Config &config, const Server &server,
              const Phase &untraced, const Phase &traced,
              const std::map<std::string, SpanTotals> &served_by,
              const ReplayResult &rp)
{
    std::map<std::string, SpanTotals> by;
    accumulateByName(rp.log->spans(), by);
    constexpr double kMs = 1e-6, kUs = 1e-3;
    const std::size_t nr = rp.requests;
    const auto perRequest = [&](std::uint64_t total) {
        return static_cast<double>(total) /
               static_cast<double>(std::max<std::size_t>(1, nr));
    };
    const auto spanMetric = [&](const char *metric, const char *span,
                                double scale, const char *unit) {
        printMetric(metric, meanOf(by, span, scale), unit, countOf(by, span));
    };

    const Counters &c = rp.counters;
    spanMetric("partition.build_ms", "partition.partitionInto", kMs, "ms");
    printMetric("partition.elements_traversed",
                perRequest(c.elements_traversed), "count", nr);
    printMetric("partition.num_blocks", perRequest(c.num_blocks), "count",
                nr);
    spanMetric("ops.fps_ms", "ops.blockFarthestPointSample", kMs, "ms");
    spanMetric("ops.ball_query_ms", "ops.blockBallQuery", kMs, "ms");
    spanMetric("ops.gather_ms", "ops.blockGatherNeighborhoods", kMs, "ms");
    printMetric("ops.distance_computations",
                perRequest(c.distance_computations), "count", nr);
    printMetric("ops.bytes_gathered", perRequest(c.bytes_gathered), "bytes",
                nr);

    spanMetric("nn.run_ms", "nn.Network.run", kMs, "ms");
    const std::size_t nn_runs = countOf(by, "nn.Network.run");
    for (const char *stage : {"partition", "fps", "neighbor", "gather",
                              "mlp", "mlp_unique", "aggregate",
                              "interpolate"}) {
        const auto it = rp.nn_stage_ms.find(stage);
        printMetric(std::string("nn.stage_ms.") + stage,
                    it == rp.nn_stage_ms.end() ? 0.0 : it->second, "ms",
                    nn_runs);
    }
    printMetric("nn.mlp_gmacs_per_s", rp.mlp_gmacs_per_s, "GMAC/s",
                countOf(by, "nn.LinearRelu.forward"));
    printMetric("nn.total_macs", perRequest(c.total_macs), "count", nr);
    printMetric("nn.sa_mlp_rows", perRequest(c.sa_mlp_rows), "count", nr);

    const std::size_t done = untraced.completed;
    const double per_done =
        1.0 / static_cast<double>(std::max<std::size_t>(1, done));
    printMetric("core.cpu_ms_per_request", untraced.cpu_s * 1e3 * per_done,
                "ms", done);
    printMetric("core.parallel_efficiency",
                untraced.cpu_s / (std::max(untraced.wall_s, 1e-9) *
                                  servingThreads()),
                "share", done);
    printMetric("core.allocs_per_request",
                static_cast<double>(untraced.allocs) * per_done, "count",
                done);
    printMetric("core.workspaces_created",
                static_cast<double>(server.pipeline->workspacesCreated()),
                "count", 1);
    printMetric("core.outcome_slots_created",
                static_cast<double>(server.pipeline->outcomeSlotsCreated()),
                "count", 1);

    const char *submit = config.kind == Kind::Ingest
                             ? "serve.trySubmitShared"
                             : "serve.submitShared";
    printMetric("serve.submit_us", meanOf(served_by, submit, kUs), "us",
                countOf(served_by, submit));
    std::vector<double> waits, services;
    std::size_t spilled = 0;
    for (const Served &s : traced.served) {
        waits.push_back(s.wait_ms);
        services.push_back(s.service_ms);
        spilled += s.spilled ? 1 : 0;
    }
    const std::size_t ns = traced.served.size();
    printMetric("serve.queue_wait_ms", nearestRank(sorted(waits), 50), "ms",
                ns);
    printMetric("serve.service_ms", nearestRank(sorted(services), 50), "ms",
                ns);
    printMetric("serve.spilled_share",
                ns > 0 ? static_cast<double>(spilled) /
                             static_cast<double>(ns)
                       : 0.0,
                "share", ns);
    printMetric("serve.rejected", static_cast<double>(traced.rejected),
                "count", traced.attempted);
    std::size_t nc = 0;
    double w = classWait(traced, fc::serve::Priority::Interactive, nc);
    printMetric("serve.class_wait_ms.interactive", w, "ms", nc);
    w = classWait(traced, fc::serve::Priority::Batch, nc);
    printMetric("serve.class_wait_ms.batch", w, "ms", nc);

    printMetric("storage.open_ms", server.open_ms, "ms",
                server.reader ? 1 : 0);
    spanMetric("storage.read_block_us", "storage.readBlock", kUs, "us");
    double hit_share = 0.0;
    if (server.ingestor) {
        const fc::storage::PrefetchStats ps =
            server.ingestor->prefetchStats();
        if (ps.hits + ps.waits > 0)
            hit_share = static_cast<double>(ps.hits) /
                        static_cast<double>(ps.hits + ps.waits);
    }
    printMetric("storage.prefetch_hit_share", hit_share, "share", 1);
    printMetric("loadgen.lag_p90_ms",
                nearestRank(sorted(untraced.lag_ms), 90), "ms",
                untraced.lag_ms.size());
}

/** The per-layer self-time table, the replay's self-time sum per
 *  request beside the untraced p50, and the tracing overhead. */
void
printTables(const std::map<std::string, SpanTotals> &served_by,
            const ReplayResult &rp, const Phase &untraced,
            const Phase &traced)
{
    std::map<std::string, SpanTotals> replay_by;
    accumulateByName(rp.log->spans(), replay_by);
    std::printf("\n%-32s %-10s %8s %14s %14s\n", "span", "layer", "count",
                "self_ms_total", "self_ms_mean");
    for (const std::map<std::string, SpanTotals> *table :
         {&served_by, &std::as_const(replay_by)})
        for (const auto &[name, t] : *table)
            std::printf("%-32s %-10s %8zu %14.3f %14.4f\n", name.c_str(),
                        layerOf(name).c_str(), t.count, t.self_ns * 1e-6,
                        t.count ? t.self_ns * 1e-6 / t.count : 0.0);

    // Replay self time per request, by layer (the shape sweep is not a
    // request and is left out).
    std::map<std::string, double> layer_ms;
    const std::vector<std::int64_t> self = selfTimes(rp.log->spans());
    double total = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
        const Span &s = rp.log->spans()[i];
        if (s.request == kMlpSweepRequest)
            continue;
        layer_ms[layerOf(s.name)] += self[i] * 1e-6;
        total += self[i] * 1e-6;
    }
    const double reqs =
        static_cast<double>(std::max<std::size_t>(1, rp.requests));
    std::printf("\nreplay self time per request:");
    for (const auto &[layer, ms] : layer_ms)
        std::printf(" %s %.3f ms,", layer.c_str(), ms / reqs);
    const double p50 = endToEnd(untraced).p50_ms;
    std::printf(" sum %.3f ms | untraced latency_p50_ms %.3f ms\n",
                total / reqs, p50);
    const double traced_p50 = endToEnd(traced).p50_ms;
    std::printf("tracing overhead: latency_p50_ms traced %.4f - untraced "
                "%.4f = %.4f ms\n",
                traced_p50, p50, traced_p50 - p50);
}

/** Chrome trace-event JSON of every span (viewable in Perfetto). */
bool
writeTrace(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
    for (const SpanLog *log : logs)
        for (const Span &s : log->spans())
            t0 = std::min(t0, s.start_ns);
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t tid = 0; tid < logs.size(); ++tid)
        for (const Span &s : logs[tid]->spans()) {
            f << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
              << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
              << ",\"ts\":" << (s.start_ns - t0) / 1000.0
              << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
              << ",\"args\":{\"request\":" << s.request << ",\"parent\":"
              << (s.parent == kNoParent ? std::int64_t{-1}
                                        : std::int64_t{s.parent})
              << "}}";
            first = false;
        }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

int
run(const Args &args)
{
    Config config;
    if (!configFor(args.workload, config)) {
        std::fprintf(stderr, "unknown workload '%s' (one of: %s)\n",
                     args.workload.c_str(), workloadNames());
        return 2;
    }
    fc::logLevel() = fc::LogLevel::Silent;
    std::filesystem::create_directories(args.work_dir);

    Inputs inputs;
    if (!makeInputs(config, args.seed, args.work_dir, inputs))
        throw std::runtime_error("cannot write the ingest file under " +
                                 args.work_dir);
    const Reference ref = referenceOf(config, inputs);
    ref.counters.print(config.name, args.seed);
    if (args.counter_seed && *args.counter_seed != args.seed) {
        Inputs gate;
        makeInputs(config, *args.counter_seed, "", gate);
        referenceOf(config, gate).counters.print(config.name,
                                                 *args.counter_seed);
    }

    std::vector<double> setups;
    std::unique_ptr<Server> server;
    for (int i = 0; i < kSetups; ++i) {
        server.reset();
        const std::int64_t t0 = nowNs();
        server = setUp(config, inputs);
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    std::printf("host nproc=%u serving_threads=%u shards=%u simd=%s "
                "pinned=%d compiler=%s\n",
                std::thread::hardware_concurrency(), servingThreads(),
                config.shards,
                fc::core::simd::levelName(fc::core::simd::activeLevel()),
                server->pipeline->pinned() ? 1 : 0, compilerTag());

    const Target target{config, args.seed, inputs, ref.clouds, ref.blocks,
                        *server};
    std::size_t attempted = 0, failed = 0, mismatches = 0;
    if (!args.trace) {
        const Phase ph = runPhase(target, args.seconds, nullptr);
        printEndToEnd(ph, median(setups));
        attempted = ph.attempted;
        failed = ph.errors();
        mismatches = ph.mismatches;
    } else {
        const Phase untraced = runPhase(target, args.seconds / 2, nullptr);
        std::vector<std::unique_ptr<SpanLog>> logs;
        const Phase traced = runPhase(target, args.seconds / 2, &logs);
        const ReplayResult rp =
            replay(config, inputs, *server, ref.clouds, ref.blocks);
        std::map<std::string, SpanTotals> served_by;
        for (const auto &log : logs)
            accumulateByName(log->spans(), served_by);

        printEndToEnd(untraced, median(setups));
        printPerLayer(config, *server, untraced, traced, served_by, rp);
        printTables(served_by, rp, untraced, traced);

        std::vector<const SpanLog *> all;
        for (const auto &log : logs)
            all.push_back(log.get());
        all.push_back(rp.log.get());
        std::size_t dropped = 0;
        for (const SpanLog *log : all)
            dropped += log->dropped();
        if (dropped > 0)
            std::printf("spans dropped (log capacity reached): %zu\n",
                        dropped);
        const std::string path = args.work_dir + "/trace-" + config.name +
                                 "-" + std::to_string(args.seed) + ".json";
        if (writeTrace(path, all))
            std::printf("spans written to %s\n", path.c_str());

        attempted = untraced.attempted + traced.attempted + rp.requests;
        mismatches = untraced.mismatches + traced.mismatches + rp.mismatches;
        if (!(rp.counters == ref.counters)) {
            std::printf("replay counters differ from the reference\n");
            ++mismatches;
        }
        failed = untraced.errors() + traced.errors() + rp.mismatches +
                 (rp.counters == ref.counters ? 0 : 1);
    }
    std::printf("result attempted=%zu failed=%zu mismatches=%zu\n",
                attempted, failed, mismatches);
    // The .fcpc is generated per seed: remove it (after the server
    // unmapped it) so the work directory does not grow run by run.
    server.reset();
    if (!inputs.fcpc_path.empty()) {
        std::error_code ignored;
        std::filesystem::remove(inputs.fcpc_path, ignored);
    }
    return mismatches > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(__GLIBC__)
    // A fixed mmap threshold turns off glibc's sliding one, which
    // rises after the first set-up frees its big buffers and then
    // leaves later ones in the heap, so peak_rss_mb depended on the
    // order in which workspaces grew (14% run to run instead of 2%).
    // The warm serve path allocates nothing, so the measured
    // latencies do not see this setting.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    try {
        Args args;
        if (!parseArgs(argc, argv, args)) {
            std::fprintf(stderr,
                         "usage: %s --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> [--counter-seed <n>] "
                         "[--work-dir <dir>]\nworkloads: %s\n",
                         argv[0], workloadNames());
            return 2;
        }
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
}
