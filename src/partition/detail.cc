#include "partition/detail.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace fc::part::detail {

void
replaySplits(BlockTree &tree, NodeIdx node_idx, const SplitRec *rec,
             PartitionStats &stats)
{
    if (rec == nullptr)
        return;
    stats += rec->local;
    if (rec->dim < 0)
        return; // all-degenerate leaf: stats only
    const std::uint32_t begin = tree.node(node_idx).begin;
    const std::uint32_t end = tree.node(node_idx).end;
    const std::uint16_t depth = tree.node(node_idx).depth;

    BlockNode left;
    left.begin = begin;
    left.end = rec->split;
    left.parent = node_idx;
    left.depth = static_cast<std::uint16_t>(depth + 1);
    BlockNode right;
    right.begin = rec->split;
    right.end = end;
    right.parent = node_idx;
    right.depth = static_cast<std::uint16_t>(depth + 1);

    const NodeIdx left_idx = tree.addNode(left);
    const NodeIdx right_idx = tree.addNode(right);
    BlockNode &parent = tree.node(node_idx);
    parent.left = left_idx;
    parent.right = right_idx;
    parent.splitDim = rec->dim;
    parent.splitValue = rec->value;

    replaySplits(tree, left_idx, rec->left, stats);
    replaySplits(tree, right_idx, rec->right, stats);
}

void
computeBounds(BlockTree &tree, const data::PointCloud &cloud)
{
    // The leaves tile [0, n), so the leaf reads below also write every
    // position of the DFT-ordered coordinates (resized within their
    // capacity on a warm rebuild).
    BlockTree::Points &pts = tree.pointArrays();
    pts.xs.resize(tree.numPoints());
    pts.ys.resize(tree.numPoints());
    pts.zs.resize(tree.numPoints());
    const std::vector<PointIdx> &order = tree.order();
    // Leaves first (any order), then internal nodes children-before-
    // parent. Nodes are appended parent-before-child by all builders,
    // so a reverse sweep sees children first.
    for (std::size_t i = tree.numNodes(); i-- > 0;) {
        BlockNode &n = tree.node(static_cast<NodeIdx>(i));
        n.bounds = Aabb{};
        if (n.isLeaf()) {
            for (std::uint32_t pos = n.begin; pos < n.end; ++pos) {
                const Vec3 &p = cloud[order[pos]];
                n.bounds.extend(p);
                pts.xs[pos] = p.x;
                pts.ys[pos] = p.y;
                pts.zs[pos] = p.z;
            }
        } else {
            n.bounds.extend(tree.node(n.left).bounds);
            n.bounds.extend(tree.node(n.right).bounds);
        }
    }
}

namespace {

/**
 * The chunked root-split: std::partition each fixed-grain chunk
 * independently, then merge two-way in chunk order (left halves
 * first, right halves after). Chunk boundaries depend only on the
 * slice and kSplitGrain, so the arrangement is a pure function of the
 * input regardless of the pool.
 */
std::uint32_t
chunkedSplitRange(std::vector<PointIdx> &order,
                  const data::PointCloud &cloud, std::uint32_t begin,
                  std::uint32_t end, int dim, float split_value,
                  core::ThreadPool *pool, core::Arena *arena)
{
    const std::uint32_t size = end - begin;
    const std::uint32_t num_chunks =
        (size + kSplitGrain - 1) / kSplitGrain;

    // Staging: chunk mid/offset tables and the merge scratch come
    // from the caller's arena when it has one (warm rebuilds then
    // never touch the heap); the heap vectors are the cold fallback.
    // Every slot is written before it is read, so the spans stay
    // uninitialized.
    std::vector<std::uint32_t> heap_u32;
    std::vector<PointIdx> heap_merged;
    std::uint32_t *mids;
    std::uint32_t *left_at;
    std::uint32_t *right_at;
    PointIdx *merged;
    if (arena != nullptr) {
        mids = arena->allocSpan<std::uint32_t>(num_chunks).data();
        left_at = arena->allocSpan<std::uint32_t>(num_chunks).data();
        right_at = arena->allocSpan<std::uint32_t>(num_chunks).data();
        merged = arena->allocSpan<PointIdx>(size).data();
    } else {
        heap_u32.resize(3 * static_cast<std::size_t>(num_chunks));
        heap_merged.resize(size);
        mids = heap_u32.data();
        left_at = heap_u32.data() + num_chunks;
        right_at = heap_u32.data() + 2 * static_cast<std::size_t>(num_chunks);
        merged = heap_merged.data();
    }

    // Phase 1: partition every chunk in place.
    core::parallelFor(
        pool, begin, end, kSplitGrain,
        [&](std::size_t cb, std::size_t ce) {
            auto mid = std::partition(
                order.begin() + cb, order.begin() + ce,
                [&](PointIdx idx) {
                    return cloud[idx][dim] < split_value;
                });
            mids[(cb - begin) / kSplitGrain] = static_cast<std::uint32_t>(
                mid - order.begin());
        });

    // Exclusive prefix sums of per-chunk left/right counts give each
    // chunk its disjoint destination in the merged arrangement.
    std::uint32_t total_left = 0;
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
        left_at[c] = total_left;
        total_left += mids[c] - (begin + c * kSplitGrain);
    }
    std::uint32_t right_cursor = total_left;
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
        right_at[c] = right_cursor;
        const std::uint32_t chunk_end =
            std::min(end, begin + (c + 1) * kSplitGrain);
        right_cursor += chunk_end - mids[c];
    }

    // Phase 2: scatter chunks into a scratch copy of the slice, then
    // copy back. Each chunk owns disjoint destination ranges.
    core::parallelFor(
        pool, 0, num_chunks, 1, [&](std::size_t cb, std::size_t ce) {
            for (std::size_t c = cb; c < ce; ++c) {
                const std::uint32_t chunk_begin =
                    begin + static_cast<std::uint32_t>(c) * kSplitGrain;
                const std::uint32_t chunk_end = std::min(
                    end,
                    begin + (static_cast<std::uint32_t>(c) + 1) *
                                kSplitGrain);
                std::copy(order.begin() + chunk_begin,
                          order.begin() + mids[c],
                          merged + left_at[c]);
                std::copy(order.begin() + mids[c],
                          order.begin() + chunk_end,
                          merged + right_at[c]);
            }
        });
    core::parallelFor(pool, 0, size, kSplitGrain,
                      [&](std::size_t cb, std::size_t ce) {
                          std::copy(merged + cb, merged + ce,
                                    order.begin() + begin + cb);
                      });
    return begin + total_left;
}

} // namespace

std::uint32_t
splitRange(std::vector<PointIdx> &order, const data::PointCloud &cloud,
           std::uint32_t begin, std::uint32_t end, int dim,
           float split_value, core::ThreadPool *pool, core::Arena *arena)
{
    if (end - begin >= kSplitParallelCutoff)
        return chunkedSplitRange(order, cloud, begin, end, dim,
                                 split_value, pool, arena);
    auto first = order.begin() + begin;
    auto last = order.begin() + end;
    auto mid = std::partition(first, last, [&](PointIdx idx) {
        return cloud[idx][dim] < split_value;
    });
    return static_cast<std::uint32_t>(mid - order.begin());
}

std::uint32_t
splitRange(BlockTree &tree, const data::PointCloud &cloud,
           std::uint32_t begin, std::uint32_t end, int dim,
           float split_value, core::ThreadPool *pool, core::Arena *arena)
{
    return splitRange(tree.order(), cloud, begin, end, dim, split_value,
                      pool, arena);
}

void
medianSplit(std::vector<PointIdx> &order, const data::PointCloud &cloud,
            std::uint32_t begin, std::uint32_t end, int dim,
            core::ThreadPool *pool, core::Arena *arena)
{
    fc_assert(end - begin >= 2, "median split needs >= 2 points");
    const std::uint32_t target = begin + (end - begin) / 2;
    if (end - begin < kSplitParallelCutoff) {
        std::nth_element(order.begin() + begin, order.begin() + target,
                         order.begin() + end,
                         [&](PointIdx a, PointIdx b) {
                             return cloud[a][dim] < cloud[b][dim];
                         });
        return;
    }

    // Deterministic quickselect: narrow [lo, hi) around the fixed
    // median position with extrema-midpoint pivots and parallel
    // partitions. Every pivot is a pure function of the slice
    // contents, so the arrangement is thread-count independent.
    std::uint32_t lo = begin, hi = end;
    while (hi - lo > 1) {
        const auto [minv, maxv] =
            rangeExtrema(order, cloud, lo, hi, dim, pool, arena);
        if (!(minv < maxv))
            break; // Ties on this axis — or an all-NaN interval,
                   // whose inverted extrema would never converge.
        // Halve-then-add: minv + (maxv - minv) * 0.5f overflows to
        // inf when the range exceeds FLT_MAX, and an inf pivot sends
        // every element one way forever.
        float pivot = minv * 0.5f + maxv * 0.5f;
        // Float midpoints of adjacent values can round back onto the
        // minimum, and infinite extrema yield inf/NaN midpoints; fall
        // back to the maximum so both sides stay non-empty and the
        // interval strictly shrinks.
        if (!(pivot > minv && pivot <= maxv))
            pivot = maxv;
        const std::uint32_t mid =
            splitRange(order, cloud, lo, hi, dim, pivot, pool, arena);
        if (target < mid)
            hi = mid;
        else
            lo = mid;
    }
}

std::pair<float, float>
rangeExtrema(const std::vector<PointIdx> &order,
             const data::PointCloud &cloud, std::uint32_t begin,
             std::uint32_t end, int dim, core::ThreadPool *pool,
             core::Arena *arena)
{
    fc_assert(begin < end, "extrema over empty range");
    const auto scan = [&](std::uint32_t b, std::uint32_t e) {
        float lo = std::numeric_limits<float>::infinity();
        float hi = -std::numeric_limits<float>::infinity();
        for (std::uint32_t pos = b; pos < e; ++pos) {
            const float v = cloud[order[pos]][dim];
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        return std::pair<float, float>{lo, hi};
    };
    if (pool == nullptr || end - begin < kSplitParallelCutoff)
        return scan(begin, end);
    // Min/max folds are exact whatever the chunking, so (unlike the
    // splits) this may take the serial path whenever no pool exists.
    return core::parallelReduce(
        pool, begin, end, kSplitGrain,
        std::pair<float, float>{std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()},
        [&](std::size_t cb, std::size_t ce) {
            return scan(static_cast<std::uint32_t>(cb),
                        static_cast<std::uint32_t>(ce));
        },
        [](std::pair<float, float> &acc,
           std::pair<float, float> &&chunk) {
            acc.first = std::min(acc.first, chunk.first);
            acc.second = std::max(acc.second, chunk.second);
        },
        arena);
}

} // namespace fc::part::detail
