#include "nn/network.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "common/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/workspace.h"
#include "ops/gather.h"
#include "ops/interpolate.h"
#include "ops/neighbor.h"

namespace fc::nn {

namespace {

/**
 * Features of one abstraction level. Levels live in a workspace slot
 * and are assigned into (never reconstructed), so their cloud/tensor
 * buffers stay warm across same-shape runs.
 */
struct Level
{
    data::PointCloud cloud;                ///< coordinates at this level
    Tensor features;                       ///< [n x c]
    std::vector<PointIdx> parent_indices;  ///< into the previous level
};

} // namespace

void
makeBlockSample(const part::BlockTree &tree,
                const std::vector<PointIdx> &indices,
                core::Workspace &ws, ops::BlockSampleResult &out)
{
    out.stats = {};
    core::Arena &arena = ws.arena();

    std::span<std::uint32_t> inverse =
        arena.allocSpan<std::uint32_t>(tree.order().size());
    for (std::uint32_t pos = 0;
         pos < static_cast<std::uint32_t>(tree.order().size()); ++pos)
        inverse[tree.order()[pos]] = pos;

    // Sort samples by DFT position: leaves are contiguous ranges, so
    // the sorted list is automatically grouped by leaf.
    std::span<std::uint32_t> positions =
        arena.allocSpan<std::uint32_t>(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        fc_assert(indices[i] < inverse.size(),
                  "sample id %u out of range (tree: %zu points)",
                  indices[i], inverse.size());
        positions[i] = inverse[indices[i]];
    }
    std::sort(positions.begin(), positions.end());

    out.positions.assign(positions.begin(), positions.end());
    out.indices.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        out.indices[i] = tree.order()[positions[i]];

    // Leaf offsets via a scan over leaves.
    const auto &leaves = tree.leaves();
    out.leaf_offsets.clear();
    out.leaf_offsets.reserve(leaves.size() + 1);
    std::size_t cursor = 0;
    out.leaf_offsets.push_back(0);
    for (const part::NodeIdx leaf : leaves) {
        const part::BlockNode &node = tree.node(leaf);
        while (cursor < positions.size() &&
               positions[cursor] < node.end)
            ++cursor;
        out.leaf_offsets.push_back(static_cast<std::uint32_t>(cursor));
    }
}

ops::BlockSampleResult
makeBlockSample(const part::BlockTree &tree,
                const std::vector<PointIdx> &indices)
{
    core::Workspace ws;
    ops::BlockSampleResult out;
    makeBlockSample(tree, indices, ws, out);
    return out;
}

Network::Network(ModelConfig config, std::uint64_t seed)
    : config_(std::move(config)), headMlp_()
{
    // Channel bookkeeping. Initial per-point features are the raw
    // coordinates (3 channels) plus any dataset channels.
    std::size_t channels = 3 + config_.input_channels;
    levelChannels_.push_back(channels);
    std::uint64_t layer_seed = seed * 7919ULL;

    for (std::size_t i = 0; i < config_.sa.size(); ++i) {
        const SaStageConfig &stage = config_.sa[i];
        fc_assert(!stage.mlp.empty(), "SA stage %zu has empty MLP", i);
        std::vector<std::size_t> widths;
        widths.push_back(3 + channels); // rel. coords + features
        widths.insert(widths.end(), stage.mlp.begin(), stage.mlp.end());
        saMlps_.emplace_back(widths, layer_seed);
        layer_seed += 101;
        channels = stage.mlp.back();
        levelChannels_.push_back(channels);
    }

    if (config_.isSegmentation()) {
        fc_assert(config_.fp.size() == config_.sa.size(),
                  "FP stage count %zu != SA stage count %zu",
                  config_.fp.size(), config_.sa.size());
        std::size_t cur = channels;
        for (std::size_t i = 0; i < config_.fp.size(); ++i) {
            const std::size_t skip_c =
                levelChannels_[config_.sa.size() - 1 - i];
            std::vector<std::size_t> widths;
            widths.push_back(cur + skip_c);
            widths.insert(widths.end(), config_.fp[i].mlp.begin(),
                          config_.fp[i].mlp.end());
            fpMlps_.emplace_back(widths, layer_seed);
            layer_seed += 101;
            cur = config_.fp[i].mlp.back();
        }
        channels = cur;
    }

    if (!config_.head.empty()) {
        std::vector<std::size_t> widths;
        widths.push_back(channels);
        widths.insert(widths.end(), config_.head.begin(),
                      config_.head.end());
        headMlp_ = Mlp(widths, layer_seed);
    }
}

std::size_t
Network::outputDim() const
{
    if (!config_.head.empty())
        return config_.head.back();
    if (config_.isSegmentation())
        return config_.fp.back().mlp.back();
    return config_.sa.back().mlp.back();
}

void
Network::run(const data::PointCloud &cloud,
             const BackendOptions &backend, core::Workspace &ws,
             InferenceResult &out) const
{
    fc_assert(!cloud.empty(), "inference over empty cloud");
    out.op_stats = {};
    out.partition_stats = {};
    out.total_macs = 0;
    out.sa_mlp_rows = 0;

    core::ThreadPool *pool = backend.pool;
    const bool use_blocks = backend.anyBlockOp();
    const bool delayed = backend.aggregation == Aggregation::Delayed;

    part::PartitionerCache &pcache =
        ws.slot<part::PartitionerCache>("nn.pcache");
    part::PartitionConfig pconfig;
    pconfig.threshold = backend.threshold;

    // Per-stage wall-clock attribution (the measured counterpart of
    // the paper's bottleneck split): a rolling mark charges each code
    // section to one of six functional stages, accumulated across SA
    // and FP levels and recorded once per run. All of it is skipped —
    // including the clock reads — unless a registry is attached and
    // sampling is on at run() entry.
    using StageClock = std::chrono::steady_clock;
    enum
    {
        kStPartition = 0,
        kStFps,
        kStNeighbor,
        kStGather,
        kStMlp,
        kStInterpolate,
        kStMlpUnique,
        kStAggregate,
        kNumStages
    };
    std::array<std::uint64_t, kNumStages> stage_acc{};
    StageClock::time_point stage_mark{};
    const bool timed = backend.metrics != nullptr &&
                       core::metrics::samplingEnabled();
    const auto lapInto = [&](std::size_t stage) {
        if (!timed)
            return;
        const StageClock::time_point now = StageClock::now();
        if (now > stage_mark)
            stage_acc[stage] += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - stage_mark)
                    .count());
        stage_mark = now;
    };
    // Stage-histogram pointers are resolved once per (workspace,
    // registry) pair and cached in a slot: the name-building and
    // registry lookup allocate, and a warm serve round trip must not.
    // The key is the registry's serial, not its address, which a new
    // registry may reuse after this one is destroyed.
    struct StageHistograms
    {
        std::uint64_t registry_serial = 0;
        std::array<core::metrics::Histogram *, kNumStages> h{};
    };
    const auto recordStages = [&] {
        if (!timed)
            return;
        static constexpr const char *kStageLabels[kNumStages] = {
            "partition", "fps",         "neighbor",
            "gather",    "mlp",         "interpolate",
            "mlp_unique", "aggregate"};
        StageHistograms &hists =
            ws.slot<StageHistograms>("nn.stage_hists");
        if (hists.registry_serial != backend.metrics->serial()) {
            for (std::size_t i = 0; i < kNumStages; ++i)
                hists.h[i] = &backend.metrics->histogram(
                    std::string("nn.stage_us{stage=") +
                    kStageLabels[i] + "}");
            hists.registry_serial = backend.metrics->serial();
        }
        for (std::size_t i = 0; i < kNumStages; ++i)
            hists.h[i]->record(stage_acc[i]);
    };

    // ---- Abstraction stages -------------------------------------------
    // Levels and per-level partitions persist in workspace slots and
    // are assigned into: a same-shape run resizes within warm
    // capacity and never allocates.
    std::vector<Level> &levels = ws.slot<std::vector<Level>>("nn.levels");
    levels.resize(config_.sa.size() + 1);
    {
        Level &base = levels[0];
        base.cloud = cloud;
        base.features.resize(cloud.size(), 3 + config_.input_channels);
        base.parent_indices.clear();
        core::parallelFor(
            pool, 0, cloud.size(),
            core::costGrain(3 + config_.input_channels),
            [&](std::size_t rb, std::size_t re) {
                for (std::size_t i = rb; i < re; ++i) {
                    auto row = base.features.row(i);
                    row[0] = cloud[i].x;
                    row[1] = cloud[i].y;
                    row[2] = cloud[i].z;
                    for (std::size_t c = 0; c < config_.input_channels;
                         ++c)
                        row[3 + c] = cloud.featureRow(i)[c];
                }
            });
        base.features.quantizeFp16(pool);
    }

    // Per-level partitions, kept for the propagation pass.
    std::vector<part::PartitionResult> &partitions =
        ws.slot<std::vector<part::PartitionResult>>("nn.parts");
    partitions.resize(config_.sa.size());

    ops::BlockSampleResult &block_sampled =
        ws.slot<ops::BlockSampleResult>("nn.bs");
    std::vector<PointIdx> &sampled =
        ws.slot<std::vector<PointIdx>>("nn.sampled");
    ops::SampleResult &global_sampled =
        ws.slot<ops::SampleResult>("nn.gs");
    ops::NeighborResult &neighbors =
        ws.slot<ops::NeighborResult>("nn.nbr");
    data::PointCloud &feat_cloud =
        ws.slot<data::PointCloud>("nn.fcloud");
    ops::GatherResult &gathered = ws.slot<ops::GatherResult>("nn.gath");
    Tensor &transformed = ws.slot<Tensor>("nn.trans");
    // Delayed-aggregation scratch: the per-level unique-point MLP
    // input and the pooled relative-coordinate summary carried into
    // the next stage's coordinate channels (see Aggregation).
    Tensor &unique_in = ws.slot<Tensor>("nn.uin");
    std::vector<float> &relpool =
        ws.slot<std::vector<float>>("nn.relpool");

    if (timed)
        stage_mark = StageClock::now(); // base setup is uncounted

    for (std::size_t si = 0; si < config_.sa.size(); ++si) {
        const SaStageConfig &stage = config_.sa[si];
        Level &cur = levels[si];
        const std::size_t n = cur.cloud.size();
        const std::size_t num_samples = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::llround(stage.sample_rate *
                                static_cast<double>(n))));

        if (use_blocks) {
            // On-chip re-partition of this stage's input, over the
            // same pool (subtree tasks + chunked root splits). Stage
            // 0 may reuse a caller-provided partition of the input
            // cloud — construction is deterministic, so the reuse is
            // invisible in the result (stats included).
            const part::PartitionResult *precomputed =
                backend.root_partition;
            if (si == 0 && precomputed != nullptr &&
                precomputed->method == backend.method &&
                precomputed->config.threshold == pconfig.threshold &&
                precomputed->config.first_dim == pconfig.first_dim &&
                precomputed->config.max_depth == pconfig.max_depth &&
                precomputed->tree.order().size() == n) {
                partitions[si] = *precomputed;
            } else {
                pcache.get(backend.method)
                    .partitionInto(cur.cloud, pconfig, pool, ws,
                                   partitions[si]);
            }
            out.partition_stats.elements_traversed +=
                partitions[si].stats.elements_traversed;
            out.partition_stats.num_sorts +=
                partitions[si].stats.num_sorts;
            out.partition_stats.sort_compares +=
                partitions[si].stats.sort_compares;
            out.partition_stats.traversal_passes +=
                partitions[si].stats.traversal_passes;
            out.partition_stats.num_splits +=
                partitions[si].stats.num_splits;
        }
        lapInto(kStPartition);

        // --- Sampling ---------------------------------------------------
        if (use_blocks && backend.block_sampling) {
            // Uniform blocks take a fixed sample count each, as PNNPU
            // does; the other methods sample at the paper's rate.
            ops::FpsOptions fps;
            fps.fixed_count_per_block =
                backend.method == part::Method::Uniform;
            ops::blockFarthestPointSample(cur.cloud,
                                          partitions[si].tree,
                                          stage.sample_rate, fps, pool,
                                          ws, block_sampled);
            sampled = block_sampled.indices;
            out.op_stats += block_sampled.stats;
        } else {
            ops::farthestPointSample(cur.cloud, num_samples, {}, pool,
                                     ws, global_sampled);
            sampled = global_sampled.indices;
            out.op_stats += global_sampled.stats;
            if (use_blocks && backend.block_grouping) {
                makeBlockSample(partitions[si].tree, sampled, ws,
                                block_sampled);
                sampled = block_sampled.indices;
            }
        }
        lapInto(kStFps);

        // --- Grouping (ball query) ---------------------------------------
        // Either sampling branch above has filled block_sampled
        // whenever block grouping runs.
        if (use_blocks && backend.block_grouping) {
            ops::blockBallQuery(cur.cloud, partitions[si].tree,
                                block_sampled, stage.radius, stage.k,
                                pool, ws, neighbors);
        } else {
            ops::ballQuery(cur.cloud, sampled, stage.radius, stage.k,
                           pool, ws, neighbors);
        }
        out.op_stats += neighbors.stats;
        lapInto(kStNeighbor);

        if (delayed) {
            // --- Unique-point MLP (compute before aggregate) -------------
            // The stage MLP runs once per unique input point instead of
            // once per gathered (center, neighbor) pair. Coordinate
            // channels carry the previous stage's pooled relative-
            // coordinate summary (stage 0 feeds zeros: each point
            // relative to itself); feature channels are this level's
            // features.
            const std::size_t c_in = cur.features.cols();
            unique_in.resize(n, 3 + c_in);
            core::parallelFor(
                pool, 0, n, core::costGrain(3 + c_in),
                [&](std::size_t rb, std::size_t re) {
                    for (std::size_t i = rb; i < re; ++i) {
                        auto row = unique_in.row(i);
                        if (si == 0) {
                            row[0] = row[1] = row[2] = 0.0f;
                        } else {
                            const float *rp = relpool.data() + i * 3;
                            row[0] = rp[0];
                            row[1] = rp[1];
                            row[2] = rp[2];
                        }
                        const auto feat = cur.features.row(i);
                        for (std::size_t c = 0; c < c_in; ++c)
                            row[3 + c] = feat[c];
                    }
                });
            unique_in.quantizeFp16(pool);
            saMlps_[si].forward(unique_in, pool, ws, transformed);
            out.total_macs += saMlps_[si].macs(n);
            out.sa_mlp_rows += n;
            lapInto(kStMlpUnique);

            // --- Aggregation: fused feature gather + max pool ------------
            // Grouping is now a pure index-gather over the unique-point
            // feature tensor (no raw-coordinate rows), fused with the
            // per-group max pool: each center's k neighbor rows fold
            // straight into its next-level feature row. The
            // relative-coordinate summary for the next stage is pooled
            // alongside.
            Level &next = levels[si + 1];
            next.features.resize(neighbors.num_centers, transformed.cols());
            if (use_blocks && backend.block_grouping) {
                out.op_stats += ops::blockGatherMaxPool(
                    transformed.data(), transformed.cols(),
                    partitions[si].tree, block_sampled.leaf_offsets,
                    neighbors, pool, next.features.data());
            } else {
                out.op_stats += ops::gatherMaxPool(
                    transformed.data(), transformed.cols(), neighbors,
                    pool, next.features.data());
            }
            ops::maxPoolRelativeCoords(cur.cloud, sampled, neighbors,
                                       pool, relpool);
            cur.cloud.subsetInto(sampled, next.cloud);
            next.parent_indices = sampled;
            lapInto(kStAggregate);
            continue;
        }

        // --- Gathering ----------------------------------------------------
        // Attach current features to the cloud for gathering.
        feat_cloud = cur.cloud;
        feat_cloud.allocateFeatures(cur.features.cols());
        std::copy(cur.features.data().begin(),
                  cur.features.data().end(),
                  feat_cloud.features().begin());

        if (use_blocks && backend.block_grouping) {
            ops::blockGatherNeighborhoods(
                feat_cloud, partitions[si].tree, sampled,
                block_sampled.leaf_offsets, neighbors, pool, ws,
                gathered);
        } else {
            ops::gatherNeighborhoods(feat_cloud, sampled, neighbors,
                                     ws, gathered);
        }
        out.op_stats += gathered.stats;
        lapInto(kStGather);

        // --- Feature computation: MLP + max pool -------------------------
        // The MLP reads the gather buffer in place: its input tensor
        // takes gathered.values by move and hands it back after
        // forward, so both keep their warm capacity.
        Tensor grouped(gathered.num_centers * gathered.k,
                       gathered.channels, std::move(gathered.values));
        grouped.quantizeFp16(pool);
        saMlps_[si].forward(grouped, pool, ws, transformed);
        out.total_macs += saMlps_[si].macs(grouped.rows());
        out.sa_mlp_rows += grouped.rows();
        gathered.values = std::move(grouped.data());

        Level &next = levels[si + 1];
        maxPoolGroups(transformed, stage.k, pool, next.features);
        cur.cloud.subsetInto(sampled, next.cloud);
        next.parent_indices = sampled;
        lapInto(kStMlp);
    }

    // ---- Readout -------------------------------------------------------
    if (!config_.isSegmentation()) {
        Tensor &pooled = ws.slot<Tensor>("nn.pooled");
        globalMaxPool(levels.back().features, pooled);
        if (!config_.head.empty()) {
            headMlp_.forward(pooled, pool, ws, out.embedding);
            out.total_macs += headMlp_.macs(1);
        } else {
            out.embedding = pooled;
        }
        out.point_features.resize(0, 0);
        lapInto(kStMlp); // head readout
        recordStages();
        return;
    }

    // ---- Propagation stages ---------------------------------------------
    Tensor &coarse = ws.slot<Tensor>("nn.coarse");
    coarse = levels.back().features;
    ops::InterpolateResult &interp =
        ws.slot<ops::InterpolateResult>("nn.interp");
    Tensor &merged = ws.slot<Tensor>("nn.merged");

    for (std::size_t fi = 0; fi < config_.fp.size(); ++fi) {
        const std::size_t level_idx = config_.sa.size() - fi; // coarse
        const Level &coarse_level = levels[level_idx];
        const Level &fine_level = levels[level_idx - 1];

        // Interpolate coarse features onto the fine points: both
        // paths take the coarse rows in place, aligned to the parent
        // indices.
        if (use_blocks && backend.block_interpolation) {
            ops::blockInterpolate(fine_level.cloud,
                                  partitions[level_idx - 1].tree,
                                  coarse.data(), coarse.cols(),
                                  coarse_level.parent_indices, 3, pool,
                                  ws, interp);
        } else {
            ops::globalInterpolate(fine_level.cloud, coarse.data(),
                                   coarse.cols(),
                                   coarse_level.parent_indices, 3, pool,
                                   ws, interp);
        }
        out.op_stats += interp.stats;
        lapInto(kStInterpolate);

        // Concat with the fine level's skip features and apply MLP.
        const std::size_t fine_c = fine_level.features.cols();
        merged.resize(fine_level.cloud.size(),
                      coarse.cols() + fine_c);
        core::parallelFor(
            pool, 0, fine_level.cloud.size(),
            core::costGrain(coarse.cols() + fine_c),
            [&](std::size_t rb, std::size_t re) {
                for (std::size_t i = rb; i < re; ++i) {
                    auto mrow = merged.row(i);
                    const float *src =
                        interp.values.data() + i * coarse.cols();
                    for (std::size_t c = 0; c < coarse.cols(); ++c)
                        mrow[c] = src[c];
                    const auto skip = fine_level.features.row(i);
                    for (std::size_t c = 0; c < fine_c; ++c)
                        mrow[coarse.cols() + c] = skip[c];
                }
            });
        merged.quantizeFp16(pool);
        fpMlps_[fi].forward(merged, pool, ws, coarse);
        out.total_macs += fpMlps_[fi].macs(merged.rows());
        lapInto(kStMlp);
    }

    if (!config_.head.empty()) {
        headMlp_.forward(coarse, pool, ws, out.point_features);
        out.total_macs += headMlp_.macs(coarse.rows());
    } else {
        out.point_features = coarse;
    }
    // Segmentation embedding: global pool of the point features (used
    // by scene-level diagnostics).
    globalMaxPool(out.point_features, out.embedding);
    lapInto(kStMlp); // head + final pooling
    recordStages();
}

InferenceResult
Network::run(const data::PointCloud &cloud,
             const BackendOptions &backend) const
{
    core::Workspace ws;
    InferenceResult out;
    run(cloud, backend, ws, out);
    return out;
}

} // namespace fc::nn
