#include "ops/fps.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"

namespace fc::ops {

namespace {

/** Chunk-local argmax candidate of one FPS sweep. */
struct FpsBest
{
    float dist = -1.0f;
    std::uint32_t pos = 0;
    std::uint64_t visited = 0;  ///< candidate reads
    std::uint64_t computed = 0; ///< distance evaluations
    std::uint64_t skipped = 0;  ///< window-check filtered
};

/**
 * FPS over the contiguous positions [begin, end) of @p pts.
 * @p order maps positions to original point indices (empty =
 * identity): a whole cloud's core::simd::soaInto() copy with no
 * order, or a BlockTree's points() with its order(). Writes exactly
 * min(num_samples, n) original indices to @p out, and their positions
 * to @p positions unless it is null — callers size their output
 * ranges from the same formula, so disjoint leaves can write one
 * shared buffer. Scratch (distance table + sampled flags) comes from
 * @p arena; the per-iteration sweep dispatches over @p pool
 * (block-wise callers pass null — their parallelism is per leaf).
 *
 * The parallel sweep is bit-identical to the serial one: chunk
 * boundaries depend only on (n, grain), each chunk tracks its best
 * with the serial loop's strictly-greater comparison, and chunks fold
 * in ascending order, so the earliest maximal position always wins —
 * exactly the serial tie-break.
 */
void
fpsOverView(const core::simd::SoaView &pts,
            std::span<const PointIdx> order, std::uint32_t begin,
            std::uint32_t end, std::size_t num_samples,
            std::uint32_t start_offset, bool window_check,
            PointIdx *out, std::uint32_t *positions, OpStats &stats,
            core::ThreadPool *pool, core::Arena &arena)
{
    const std::uint32_t n = end - begin;
    if (n == 0 || num_samples == 0)
        return;
    num_samples = std::min<std::size_t>(num_samples, n);

    std::span<float> min_dist =
        arena.allocSpan<float>(n, std::numeric_limits<float>::max());
    std::span<std::uint8_t> sampled =
        arena.allocSpan<std::uint8_t>(n, std::uint8_t{0});

    std::uint32_t current = std::min(start_offset, n - 1);
    const auto take = [&] {
        sampled[current] = 1;
        const std::uint32_t pos = begin + current;
        *out++ = order.empty() ? pos : order[pos];
        if (positions != nullptr)
            *positions++ = pos;
    };
    take();

    // Every iteration forks and joins once, so a chunk must outweigh
    // that: 32768 points per chunk keeps clouds up to that size
    // inline and still splits larger ones.
    const std::size_t grain = core::costGrain(8, std::size_t{1} << 18);
    for (std::size_t s = 1; s < num_samples; ++s) {
        ++stats.iterations;
        const std::uint32_t cur = begin + current;
        const Vec3 cur_pt(pts.xs[cur], pts.ys[cur], pts.zs[cur]);
        const FpsBest best = core::parallelReduce(
            pool, 0, n, grain, FpsBest{},
            [&](std::size_t cb, std::size_t ce) {
                // Kernel-local positions index min_dist/sampled; the
                // view starts at `begin` of pts.
                const core::simd::FpsPartial p = core::simd::fpsUpdate(
                    pts, begin, cur_pt, min_dist.data(),
                    sampled.data(), static_cast<std::uint32_t>(cb),
                    static_cast<std::uint32_t>(ce));
                FpsBest local;
                local.dist = p.best;
                local.pos = p.pos;
                // The window-check module (paper Fig. 11(c)) filters
                // sampled points out of the candidate stream entirely;
                // without it the hardware still reads and re-compares
                // them. Either way only unsampled candidates cost a
                // distance evaluation.
                const std::uint64_t len = ce - cb;
                local.computed = len - p.sampled;
                local.visited = window_check ? len - p.sampled : len;
                local.skipped = window_check ? p.sampled : 0;
                return local;
            },
            [](FpsBest &acc, FpsBest &&chunk) {
                // Strictly greater: the earliest chunk (and within a
                // chunk the earliest index) wins ties, matching the
                // serial sweep.
                if (chunk.dist > acc.dist) {
                    acc.dist = chunk.dist;
                    acc.pos = chunk.pos;
                }
                acc.visited += chunk.visited;
                acc.computed += chunk.computed;
                acc.skipped += chunk.skipped;
            },
            &arena);
        stats.points_visited += best.visited;
        stats.distance_computations += best.computed;
        stats.skipped += best.skipped;
        current = best.pos;
        take();
    }
    // Final iteration bookkeeping: the first sample costs one setup
    // iteration as well.
    ++stats.iterations;
}

} // namespace

void
farthestPointSample(const data::PointCloud &cloud,
                    std::size_t num_samples, const FpsOptions &options,
                    core::ThreadPool *pool, core::Workspace &ws,
                    SampleResult &out)
{
    out.stats = {};
    if (cloud.empty() || num_samples == 0) {
        out.indices.clear();
        return;
    }
    out.indices.resize(std::min(num_samples, cloud.size()));
    // The identity view is implicit (empty order span): no O(n) index
    // fill.
    core::Arena &arena = ws.arena();
    fpsOverView(core::simd::soaInto(cloud.coords(), arena), {}, 0,
                static_cast<std::uint32_t>(cloud.size()), num_samples,
                options.start_index, options.window_check,
                out.indices.data(), nullptr, out.stats, pool, arena);
}

SampleResult
farthestPointSample(const data::PointCloud &cloud,
                    std::size_t num_samples, const FpsOptions &options,
                    core::ThreadPool *pool)
{
    core::Workspace ws;
    SampleResult out;
    farthestPointSample(cloud, num_samples, options, pool, ws, out);
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
    // out.indices directly — no per-leaf buffers, no merge copy.
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
        }
        out.leaf_offsets.push_back(
            out.leaf_offsets[li] +
            static_cast<std::uint32_t>(quotas[li]));
    }
    out.indices.resize(out.leaf_offsets.back());
    out.positions.resize(out.leaf_offsets.back());

    std::span<OpStats> leaf_stats =
        arena.allocSpan<OpStats>(leaves.size(), OpStats{});
    core::parallelFor(
        pool, 0, leaves.size(), 1,
        [&](std::size_t lb, std::size_t le) {
            for (std::size_t li = lb; li < le; ++li) {
                if (quotas[li] == 0)
                    continue;
                const part::BlockNode &node = tree.node(leaves[li]);
                fpsOverView(tree.points(), tree.order(), node.begin,
                            node.end, quotas[li], options.start_index,
                            options.window_check,
                            out.indices.data() + out.leaf_offsets[li],
                            out.positions.data() + out.leaf_offsets[li],
                            leaf_stats[li], nullptr, arena);
            }
        });
    for (std::size_t li = 0; li < leaves.size(); ++li)
        out.stats += leaf_stats[li];
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
