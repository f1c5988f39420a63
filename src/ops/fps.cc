#include "ops/fps.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"

namespace fc::ops {

namespace {

/**
 * Adds the work of one FPS run, @p q samples out of @p n points (one
 * leaf, or a whole cloud), to @p stats. Every sweep picks an unsampled
 * candidate, so sweep s (1 <= s < q) sees exactly s sampled ones; the
 * window check (paper Fig. 11(c)) filters those out of the candidate
 * stream, and without it the hardware still reads and re-compares
 * them. Either way only unsampled candidates cost a distance
 * evaluation. The first sample costs one setup iteration.
 */
void
addLeafStats(std::uint64_t n, std::uint64_t q, bool window_check,
             OpStats &stats)
{
    const std::uint64_t sampled_seen = q * (q - 1) / 2;
    stats.iterations += q;
    stats.distance_computations += (q - 1) * n - sampled_seen;
    stats.points_visited +=
        window_check ? (q - 1) * n - sampled_seen : (q - 1) * n;
    stats.skipped += window_check ? sampled_seen : 0;
}

} // namespace

void
farthestPointSample(const data::PointCloud &cloud,
                    std::size_t num_samples, const FpsOptions &options,
                    core::Workspace &ws, SampleResult &out)
{
    out.stats = {};
    if (cloud.empty() || num_samples == 0) {
        out.indices.clear();
        return;
    }
    const std::size_t n = cloud.size();
    const std::size_t q = std::min(num_samples, n);
    out.indices.resize(q);
    // soaInto keeps the cloud's order, so the positions are the ids.
    core::Arena &arena = ws.arena();
    core::simd::fpsLeaf(core::simd::soaInto(cloud.coords(), arena), 0,
                        static_cast<std::uint32_t>(n), q,
                        arena.allocSpan<float>(n).data(),
                        out.indices.data());
    addLeafStats(n, q, options.window_check, out.stats);
}

SampleResult
farthestPointSample(const data::PointCloud &cloud,
                    std::size_t num_samples, const FpsOptions &options)
{
    core::Workspace ws;
    SampleResult out;
    farthestPointSample(cloud, num_samples, options, ws, out);
    return out;
}

void
blockFarthestPointSample(const data::PointCloud &cloud,
                         const part::BlockTree &tree, double rate,
                         const FpsOptions &options,
                         core::ThreadPool *pool, core::Workspace &ws,
                         BlockSampleResult &out)
{
    fc_assert(rate > 0.0 && rate <= 1.0,
              "sampling rate %f outside (0, 1]", rate);
    // The leaves read the tree's copy of the coordinates, so the tree
    // must come from partitioning this cloud.
    fc_assert(tree.numPoints() == cloud.size() && tree.hasPoints(),
              "block op needs a tree partitioned from this cloud (tree: "
              "%u points, coordinates %s; cloud: %zu points)",
              tree.numPoints(), tree.hasPoints() ? "stored" : "missing",
              cloud.size());
    out.stats = {};
    core::Arena &arena = ws.arena();
    const auto &leaves = tree.leaves();
    out.leaf_offsets.clear();
    out.leaf_offsets.reserve(leaves.size() + 1);
    out.leaf_offsets.push_back(0);

    // Fixed-count mode: split the total budget evenly over non-empty
    // leaves (PNNPU-style, see FpsOptions).
    std::size_t nonempty = 0;
    for (const part::NodeIdx leaf : leaves)
        nonempty += tree.node(leaf).size() > 0;
    const double per_block_count =
        nonempty == 0
            ? 0.0
            : rate * static_cast<double>(tree.numPoints()) /
                  static_cast<double>(nonempty);

    // Every quota is a pure function of the leaf size and the
    // options, so the per-leaf output ranges are known before any
    // sampling runs: prefix-summing the quotas yields leaf_offsets up
    // front, and each leaf then writes its disjoint slice of
    // out.indices directly — no per-leaf buffers, no merge copy. The
    // stats follow from the quotas too.
    std::span<std::size_t> quotas =
        arena.allocSpan<std::size_t>(leaves.size());
    for (std::size_t li = 0; li < leaves.size(); ++li) {
        const std::uint32_t size = tree.node(leaves[li]).size();
        if (size == 0) {
            quotas[li] = 0;
        } else {
            // Fixed rate, rounded to nearest; at least one sample so
            // sparse regions stay represented.
            const std::size_t quota =
                static_cast<std::size_t>(std::llround(
                    options.fixed_count_per_block
                        ? per_block_count
                        : rate * static_cast<double>(size)));
            quotas[li] = std::clamp<std::size_t>(quota, 1, size);
            addLeafStats(size, quotas[li], options.window_check,
                         out.stats);
        }
        out.leaf_offsets.push_back(
            out.leaf_offsets[li] +
            static_cast<std::uint32_t>(quotas[li]));
    }
    out.indices.resize(out.leaf_offsets.back());
    out.positions.resize(out.leaf_offsets.back());

    const core::simd::SoaView pts = tree.points();
    const std::span<const PointIdx> order = tree.order();
    core::parallelFor(
        pool, 0, leaves.size(), 1,
        [&](std::size_t lb, std::size_t le) {
            for (std::size_t li = lb; li < le; ++li) {
                if (quotas[li] == 0)
                    continue;
                const part::BlockNode &node = tree.node(leaves[li]);
                const std::uint32_t first = out.leaf_offsets[li];
                core::simd::fpsLeaf(
                    pts, node.begin, node.end, quotas[li],
                    arena.allocSpan<float>(node.size()).data(),
                    out.positions.data() + first);
                for (std::uint32_t s = first; s < out.leaf_offsets[li + 1];
                     ++s)
                    out.indices[s] = order[out.positions[s]];
            }
        });
}

BlockSampleResult
blockFarthestPointSample(const data::PointCloud &cloud,
                         const part::BlockTree &tree, double rate,
                         const FpsOptions &options,
                         core::ThreadPool *pool)
{
    core::Workspace ws;
    BlockSampleResult out;
    blockFarthestPointSample(cloud, tree, rate, options, pool, ws, out);
    return out;
}

} // namespace fc::ops
