#include "partition/detail.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

#include "common/logging.h"
#include "core/simd.h"

namespace fc::part::detail {

namespace {

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
computeBounds(BlockTree &tree)
{
    const core::simd::SoaView pts = tree.points();
    // Leaves first (any order), then internal nodes children-before-
    // parent. Nodes are appended parent-before-child by all builders,
    // so a reverse sweep sees children first.
    for (std::size_t i = tree.numNodes(); i-- > 0;) {
        BlockNode &n = tree.node(static_cast<NodeIdx>(i));
        n.bounds = Aabb{};
        if (n.isLeaf()) {
            // Aabb::extend over the leaf's points folds each axis
            // independently; extrema is that fold, bit for bit.
            std::tie(n.bounds.lo.x, n.bounds.hi.x) =
                core::simd::extrema(pts.xs, n.begin, n.end);
            std::tie(n.bounds.lo.y, n.bounds.hi.y) =
                core::simd::extrema(pts.ys, n.begin, n.end);
            std::tie(n.bounds.lo.z, n.bounds.hi.z) =
                core::simd::extrema(pts.zs, n.begin, n.end);
        } else {
            n.bounds.extend(tree.node(n.left).bounds);
            n.bounds.extend(tree.node(n.right).bounds);
        }
    }
}

/**
 * The chunked root-split: split each fixed-grain chunk independently,
 * then merge two-way in chunk order (left halves first, right halves
 * after). Chunk boundaries depend only on the slice and kSplitGrain,
 * so the arrangement is a pure function of the input regardless of
 * the pool.
 */
std::uint32_t
chunkedSplitRange(const core::simd::SplitArrays &arrays,
                  std::uint32_t begin, std::uint32_t end, int dim,
                  float split_value, core::ThreadPool *pool,
                  core::Arena *arena)
{
    static_assert(sizeof(PointIdx) == sizeof(float),
                  "the merge moves every working array through one "
                  "scratch of 4-byte elements");
    constexpr std::size_t kElem = sizeof(float);
    const std::uint32_t size = end - begin;
    const std::uint32_t num_chunks =
        (size + kSplitGrain - 1) / kSplitGrain;

    // Staging: chunk mid/offset tables and the merge scratch come
    // from the caller's arena when it has one (warm rebuilds then
    // never touch the heap); the heap vectors are the cold fallback.
    // Every slot is written before it is read, so the spans stay
    // uninitialized.
    std::vector<std::uint32_t> heap_u32;
    std::vector<std::byte> heap_merged;
    std::uint32_t *mids;
    std::uint32_t *left_at;
    std::uint32_t *right_at;
    std::byte *merged;
    if (arena != nullptr) {
        mids = arena->allocSpan<std::uint32_t>(num_chunks).data();
        left_at = arena->allocSpan<std::uint32_t>(num_chunks).data();
        right_at = arena->allocSpan<std::uint32_t>(num_chunks).data();
        merged = arena->allocSpan<std::byte>(size * kElem).data();
    } else {
        heap_u32.resize(3 * static_cast<std::size_t>(num_chunks));
        heap_merged.resize(size * kElem);
        mids = heap_u32.data();
        left_at = heap_u32.data() + num_chunks;
        right_at = heap_u32.data() + 2 * static_cast<std::size_t>(num_chunks);
        merged = heap_merged.data();
    }

    // Phase 1: split every chunk in place.
    core::parallelFor(pool, begin, end, kSplitGrain,
                      [&](std::size_t cb, std::size_t ce) {
                          mids[(cb - begin) / kSplitGrain] =
                              core::simd::splitBelow(
                                  arrays, dim,
                                  static_cast<std::uint32_t>(cb),
                                  static_cast<std::uint32_t>(ce),
                                  split_value);
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

    // Phase 2, once per working array: scatter the chunks into the
    // scratch, then copy it back. These copies run at memory speed on
    // the calling thread: dispatched over the pool, their eight
    // parallelFor calls per split cost more than they saved (Fractal
    // build of a 131072-point LiDAR frame on a 4-thread pool, 4 vCPUs:
    // 12.8 ms per frame pooled, 8.1 ms inline).
    const auto merge = [&](void *array) {
        std::byte *data = static_cast<std::byte *>(array);
        for (std::uint32_t c = 0; c < num_chunks; ++c) {
            const std::size_t chunk_begin = begin + c * kSplitGrain;
            const std::size_t chunk_end =
                std::min<std::size_t>(end, chunk_begin + kSplitGrain);
            std::memcpy(merged + left_at[c] * kElem,
                        data + chunk_begin * kElem,
                        (mids[c] - chunk_begin) * kElem);
            std::memcpy(merged + right_at[c] * kElem,
                        data + mids[c] * kElem,
                        (chunk_end - mids[c]) * kElem);
        }
        std::memcpy(data + begin * kElem, merged, size * kElem);
    };
    merge(arrays.ids);
    merge(arrays.xs);
    merge(arrays.ys);
    merge(arrays.zs);
    return begin + total_left;
}

/** A key and its slot in the slice, for the small median split. */
struct KeySlot
{
    float key;
    std::uint32_t slot;
};

/**
 * std::nth_element over (key, slot) pairs of the slice, then the four
 * arrays permuted by slot: the arrangement nth_element would give the
 * arrays themselves.
 */
void
smallMedianSplit(const core::simd::SplitArrays &arrays,
                 std::uint32_t begin, std::uint32_t end, int dim)
{
    const std::uint32_t size = end - begin;
    std::array<KeySlot, kSplitParallelCutoff> pairs;
    float *keys = arrays.axis(dim);
    for (std::uint32_t i = 0; i < size; ++i)
        pairs[i] = {keys[begin + i], i};
    std::nth_element(pairs.begin(), pairs.begin() + size / 2,
                     pairs.begin() + size,
                     [](const KeySlot &a, const KeySlot &b) {
                         return a.key < b.key;
                     });

    // Position begin + i takes what sat at begin + pairs[i].slot. The
    // keys travel in the pairs; the other three arrays follow each
    // cycle of the permutation in place, marking done slots as fixed
    // points.
    float *other_a = arrays.axis((dim + 1) % 3);
    float *other_b = arrays.axis((dim + 2) % 3);
    PointIdx *ids = arrays.ids + begin;
    other_a += begin;
    other_b += begin;
    for (std::uint32_t i = 0; i < size; ++i) {
        keys[begin + i] = pairs[i].key;
        if (pairs[i].slot == i)
            continue;
        const PointIdx id = ids[i];
        const float a = other_a[i];
        const float b = other_b[i];
        std::uint32_t to = i;
        for (;;) {
            const std::uint32_t from = pairs[to].slot;
            pairs[to].slot = to;
            if (from == i) {
                ids[to] = id;
                other_a[to] = a;
                other_b[to] = b;
                break;
            }
            ids[to] = ids[from];
            other_a[to] = other_a[from];
            other_b[to] = other_b[from];
            to = from;
        }
    }
}

} // namespace

void
beginBuild(const data::PointCloud &cloud, Method method,
           const PartitionConfig &config, PartitionResult &out)
{
    fc_assert(config.threshold > 0, "threshold must be positive");
    out.method = method;
    out.config = config;
    out.stats = {};
    out.tree.load(cloud.coords());
    BlockNode root;
    root.begin = 0;
    root.end = out.tree.numPoints();
    out.tree.addNode(root);
}

void
finishBuild(const SplitRec *root, PartitionResult &out)
{
    replaySplits(out.tree, 0, root, out.stats);
    out.tree.rebuildLeafList();
    computeBounds(out.tree);
}

std::uint16_t
internalLevels(const BlockTree &tree)
{
    std::uint16_t levels = 0;
    for (std::size_t i = 0; i < tree.numNodes(); ++i) {
        const BlockNode &n = tree.node(static_cast<NodeIdx>(i));
        if (!n.isLeaf())
            levels = std::max<std::uint16_t>(
                levels, static_cast<std::uint16_t>(n.depth + 1));
    }
    return levels;
}

std::uint32_t
splitRange(BlockTree &tree, std::uint32_t begin, std::uint32_t end,
           int dim, float split_value, core::ThreadPool *pool,
           core::Arena *arena)
{
    if (end - begin >= kSplitParallelCutoff)
        return chunkedSplitRange(tree.splitArrays(), begin, end, dim,
                                 split_value, pool, arena);
    return core::simd::splitBelow(tree.splitArrays(), dim, begin, end,
                                  split_value);
}

void
medianSplit(BlockTree &tree, std::uint32_t begin, std::uint32_t end,
            int dim, core::ThreadPool *pool, core::Arena *arena)
{
    fc_assert(end - begin >= 2, "median split needs >= 2 points");
    const std::uint32_t target = begin + (end - begin) / 2;
    if (end - begin < kSplitParallelCutoff) {
        smallMedianSplit(tree.splitArrays(), begin, end, dim);
        return;
    }

    // Deterministic quickselect: narrow [lo, hi) around the fixed
    // median position with extrema-midpoint pivots and parallel
    // partitions. Every pivot is a pure function of the slice
    // contents, so the arrangement is thread-count independent.
    std::uint32_t lo = begin, hi = end;
    while (hi - lo > 1) {
        const auto [minv, maxv] = rangeExtrema(tree, lo, hi, dim);
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
            splitRange(tree, lo, hi, dim, pivot, pool, arena);
        if (target < mid)
            hi = mid;
        else
            lo = mid;
    }
}

std::pair<float, float>
rangeExtrema(const BlockTree &tree, std::uint32_t begin,
             std::uint32_t end, int dim)
{
    fc_assert(begin < end, "extrema over empty range");
    return core::simd::extrema(tree.points().axis(dim), begin, end);
}

} // namespace fc::part::detail
