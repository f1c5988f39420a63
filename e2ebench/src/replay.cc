#include "replay.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/workspace.h"
#include "nn/mlp.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/neighbor.h"
#include "partition/partitioner.h"

namespace e2e {

using namespace fc;

namespace {

struct LayerShape
{
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t rows = 0;
};

/**
 * Every LinearRelu of @p model with the rows it sees under the
 * delayed order on an @p n0-point cloud: SA layers run once per
 * unique point of their level, FP layers once per point of the finer
 * level, the segmentation head once per input point. Level sizes are
 * the nominal llround(rate * n) that Network::run targets.
 */
std::vector<LayerShape>
mlpShapes(const nn::ModelConfig &model, std::size_t n0)
{
    std::vector<LayerShape> out;
    const auto addMlp = [&](std::size_t in,
                            const std::vector<std::size_t> &widths,
                            std::size_t rows) {
        for (const std::size_t w : widths) {
            out.push_back({in, w, rows});
            in = w;
        }
    };
    std::vector<std::size_t> channels{3 + model.input_channels};
    std::vector<std::size_t> points{n0};
    for (const nn::SaStageConfig &stage : model.sa) {
        const std::size_t n = points.back();
        addMlp(3 + channels.back(), stage.mlp, n);
        points.push_back(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(
                   stage.sample_rate * static_cast<double>(n)))));
        channels.push_back(stage.mlp.back());
    }
    std::size_t cur = channels.back();
    for (std::size_t i = 0; i < model.fp.size(); ++i) {
        const std::size_t fine = model.sa.size() - 1 - i;
        addMlp(cur + channels[fine], model.fp[i].mlp, points[fine]);
        cur = model.fp[i].mlp.back();
    }
    if (!model.head.empty())
        addMlp(cur, model.head, model.isSegmentation() ? n0 : 1);
    return out;
}

/** Time one warm LinearRelu::forward per layer shape; GMAC/s. */
double
mlpSweep(const nn::ModelConfig &model, std::size_t n0,
         core::ThreadPool &pool, SpanLog &log)
{
    Pcg32 rng(7);
    std::uint64_t macs = 0;
    std::int64_t ns = 0;
    std::uint64_t seed = 1;
    const std::uint32_t root =
        log.begin("replay.mlp_sweep", kNoParent, kMlpSweepRequest);
    for (const LayerShape &s : mlpShapes(model, n0)) {
        const nn::LinearRelu layer(s.in, s.out, seed++);
        nn::Tensor x(s.rows, s.in);
        for (float &v : x.data())
            v = rng.uniform(-1.0f, 1.0f);
        nn::Tensor y;
        layer.forward(x, &pool, y); // warm: output capacity, caches
        const std::int64_t t0 = nowNs();
        {
            Scope span(&log, "nn.LinearRelu.forward", root,
                       kMlpSweepRequest);
            layer.forward(x, &pool, y);
        }
        ns += nowNs() - t0;
        macs += layer.macs(s.rows);
    }
    log.end(root);
    // MACs per nanosecond is GMAC/s.
    return ns > 0 ? static_cast<double>(macs) / static_cast<double>(ns)
                  : 0.0;
}

} // namespace

ReplayResult
replay(const Config &config, const Inputs &inputs, const Server &server,
       const std::vector<BatchResult> &refs,
       const std::vector<BatchResult> &block_refs)
{
    ReplayResult res;
    core::ThreadPool pool(std::max(1u, servingThreads() / config.shards));
    core::Workspace ws;
    core::metrics::Registry registry;
    const PipelineOptions served; // method, threshold, window check
    const std::unique_ptr<part::Partitioner> partitioner =
        part::makePartitioner(served.method);
    part::PartitionConfig pconfig;
    pconfig.threshold = served.threshold;
    ops::FpsOptions fps;
    fps.window_check = served.window_check;
    part::PartitionResult part;
    BatchResult r;
    const BatchRequest cloud_request =
        requestFor(config, server.network.get());
    const BatchRequest block_request = requestFor(config, nullptr);

    // One request through the serving stage sequence, each public
    // call in its own span; @p cloud null = read block @p block.
    const auto one = [&](SpanLog *log, std::uint64_t rid,
                         const data::PointCloud *cloud, std::size_t block,
                         const BatchRequest &req, const BatchResult &ref) {
        ws.reset();
        const std::uint32_t root =
            log != nullptr ? log->begin("replay.request", kNoParent, rid)
                           : kNoParent;
        data::PointCloud stored;
        if (cloud == nullptr) {
            Scope s(log, "storage.readBlock", root, rid);
            if (server.reader->readBlock(block, stored) !=
                storage::FcpcStatus::Ok) {
                ++res.mismatches;
                if (log != nullptr)
                    log->end(root);
                return;
            }
            cloud = &stored;
        }
        {
            Scope s(log, "partition.partitionInto", root, rid);
            partitioner->partitionInto(*cloud, pconfig, &pool, ws, part);
        }
        {
            Scope s(log, "ops.blockFarthestPointSample", root, rid);
            ops::blockFarthestPointSample(*cloud, part.tree,
                                          req.sample_rate, fps, &pool, ws,
                                          r.sampled);
        }
        {
            Scope s(log, "ops.blockBallQuery", root, rid);
            ops::blockBallQuery(*cloud, part.tree, r.sampled, req.radius,
                                req.neighbors, &pool, ws, r.grouped);
        }
        {
            Scope s(log, "ops.blockGatherNeighborhoods", root, rid);
            ops::blockGatherNeighborhoods(
                *cloud, part.tree, r.sampled.indices,
                r.sampled.leaf_offsets, r.grouped, &pool, ws, r.gathered);
        }
        r.partition_stats = part.stats;
        r.num_blocks = part.tree.leaves().size();
        if (req.network != nullptr) {
            nn::BackendOptions backend;
            backend.method = served.method;
            backend.threshold = served.threshold;
            backend.pool = &pool;
            backend.aggregation = req.aggregation;
            backend.root_partition = &part;
            backend.metrics = &registry;
            if (!r.inference)
                r.inference.emplace();
            Scope s(log, "nn.Network.run", root, rid);
            req.network->run(*cloud, backend, ws, *r.inference);
        } else {
            r.inference.reset();
        }
        if (log == nullptr)
            return;
        log->end(root);
        res.counters.add(r);
        ++res.requests;
        if (!sameResult(r, ref))
            ++res.mismatches;
    };
    const auto pass = [&](SpanLog *log) {
        std::uint64_t rid = 0;
        for (std::size_t i = 0; i < inputs.blocks.size(); ++i)
            one(log, rid++, nullptr, i, block_request, block_refs[i]);
        for (std::size_t i = 0; i < inputs.clouds.size(); ++i)
            one(log, rid++, inputs.clouds[i].get(), 0, cloud_request,
                refs[i]);
    };

    pass(nullptr); // warm: workspace capacity and page cache
    registry.reset();
    res.log = std::make_unique<SpanLog>(1 << 14);
    pass(res.log.get());

    if (server.network != nullptr) {
        for (const char *label :
             {"partition", "fps", "neighbor", "gather", "mlp",
              "interpolate", "mlp_unique", "aggregate"}) {
            const core::metrics::Histogram &h = registry.histogram(
                std::string("nn.stage_us{stage=") + label + "}");
            res.nn_stage_ms[label] =
                h.count() > 0 ? static_cast<double>(h.sum()) /
                                    static_cast<double>(h.count()) / 1000.0
                              : 0.0;
        }
        res.mlp_gmacs_per_s = mlpSweep(server.network->config(),
                                       config.cloud_points, pool, *res.log);
    }
    return res;
}

} // namespace e2e
