/**
 * @file
 * Internal helpers shared by the concrete partitioners. Not part of
 * the public API.
 *
 * Every builder works inside its BlockTree, as the paper's Fractal
 * engine splits points that already sit in DFT order in its buffers:
 * beginBuild loads the cloud into order() and points(), the split
 * helpers move those four arrays together and read keys from one
 * contiguous coordinate array, and finishBuild turns the recorded
 * splits into nodes, leaves and bounds.
 */

#ifndef FC_PARTITION_DETAIL_H
#define FC_PARTITION_DETAIL_H

#include <cstdint>
#include <utility>

#include "core/parallel.h"
#include "core/workspace.h"
#include "dataset/point_cloud.h"
#include "partition/block_tree.h"
#include "partition/partitioner.h"

namespace fc::part::detail {

/**
 * Subtrees at or above this many points are forked as pool tasks by
 * the parallel builders; smaller ones recurse inline (task overhead
 * would dominate).
 */
inline constexpr std::uint32_t kParallelCutoff = 2048;

/**
 * The builders' shared fork/join policy: fork @p left onto the pool,
 * run @p right on the calling thread, and join before returning. A
 * null/single-thread pool, or a node of fewer than twice
 * kParallelCutoff points (both halves must be worth a task), degrades
 * to plain sequential calls — left, then right. The two callables
 * must touch disjoint state (the builders hand them disjoint slices of
 * the tree's working arrays).
 */
template <typename LeftFn, typename RightFn>
void
forkJoin(core::ThreadPool *pool, std::uint32_t size, LeftFn &&left,
         RightFn &&right)
{
    if (pool != nullptr && pool->numThreads() > 1 &&
        size >= 2 * kParallelCutoff) {
        core::TaskGroup group(pool);
        group.run(std::forward<LeftFn>(left));
        right();
        group.wait();
    } else {
        left();
        right();
    }
}

/**
 * The pool a builder hands splitRange/medianSplit for a node at
 * @p depth: its own at the root, null below it. Below the root,
 * forkJoin's subtree tasks already keep the pool busy, and a nested
 * dispatch's waiter helps drain those tasks, stalling its own split
 * (Fractal build of a 131072-point LiDAR frame on a 4-thread pool,
 * 4 vCPUs: 5.4 ms per frame pooled at every depth, 2.7 ms at the root
 * only). Either way the arrangement is the same.
 */
inline core::ThreadPool *
splitPool(core::ThreadPool *pool, std::uint16_t depth)
{
    return depth == 0 ? pool : nullptr;
}

/**
 * One performed split, recorded during a (possibly parallel) build
 * phase and replayed sequentially into the BlockTree.
 *
 * The parallel builders only mutate disjoint slices of the tree's
 * working arrays (order() and points(), moved together); node
 * allocation is deferred to finishBuild(), which replays this record
 * tree in exactly the order the sequential builder allocates nodes —
 * so the resulting BlockTree is bit-identical at any thread count.
 *
 * Records live in a core::Arena (the partition scratch of the
 * workspace layer): children are raw pointers, the whole record tree
 * is reclaimed wholesale by Arena::reset, and a warm same-shape
 * rebuild replays into the cold run's footprint without touching the
 * heap. Arena::allocate is thread-safe, so concurrent subtree tasks
 * may record splits directly.
 */
struct SplitRec
{
    /** Position of the first right-side element (split or median). */
    std::uint32_t split = 0;

    /** Split axis, or -1 for a degenerate (stats-only) record. */
    std::int8_t dim = -1;
    float value = 0.0f;

    /** Stat deltas attributable to this node's split attempts. */
    PartitionStats local;

    SplitRec *left = nullptr;
    SplitRec *right = nullptr;
};

/**
 * The start of every partitionInto: check the threshold, stamp
 * @p method and @p config on @p out, zero its stats, load @p cloud
 * into out.tree (BlockTree::load: identity order, coordinates
 * transposed) and add the root node over every point.
 */
void beginBuild(const data::PointCloud &cloud, Method method,
                const PartitionConfig &config, PartitionResult &out);

/**
 * The end of every partitionInto: replay the record tree @p root
 * (null keeps the root a leaf) into out.tree, allocating nodes in the
 * sequential builders' order (left, right, then left's subtree) and
 * folding each record's stat deltas into out.stats in the same
 * pre-order; then rebuild the leaf list and fill every node's bounds
 * from points() — leaves by folding their range one axis at a time
 * (core::simd::extrema, bit for bit Aabb::extend over the points in
 * order), internal nodes as the union of their children.
 */
void finishBuild(const SplitRec *root, PartitionResult &out);

/**
 * Number of levels holding internal nodes (1 + the deepest internal
 * node's depth; 0 when the root is a leaf): the level-parallel
 * traversal passes of the Fractal and octree builds (Fig. 5 right).
 */
std::uint16_t internalLevels(const BlockTree &tree);

/**
 * Slices at or above this many points partition chunk-wise (parallel
 * splitRange below); smaller slices use one core::simd::splitBelow,
 * which arranges them exactly as one std::partition. The choice
 * depends only on the slice size — never on the pool — so any thread
 * count (including none) produces the same arrangement.
 */
inline constexpr std::uint32_t kSplitParallelCutoff = 8192;

/** Chunk length of the parallel splitRange phases. */
inline constexpr std::uint32_t kSplitGrain = 4096;

/**
 * Partition positions [begin, end) of @p tree's working arrays around
 * @p split_value on @p dim — order() and the three points() arrays
 * move together, so every position keeps its point's id and
 * coordinates; returns the first position of the right side. Points
 * with coordinate < split_value go left. The keys are read from the
 * contiguous points() array of @p dim.
 *
 * Slices of at least kSplitParallelCutoff points run the parallel
 * root-split algorithm: fixed kSplitGrain chunks are split
 * independently (dispatched over @p pool), then merged two-way in
 * chunk order — left halves first, right halves after — one array at
 * a time through one 4-byte-per-point scratch on the calling thread,
 * so the result is a pure function of the input slice, bit-identical
 * at any thread count. On already-partitioned input (including
 * all-equal coordinates) every phase is the identity, matching a
 * single std::partition byte for byte. Smaller slices take exactly the
 * sequential std::partition arrangement (core::simd::splitBelow).
 *
 * @p arena (optional, here and in medianSplit) supplies the chunked
 * path's staging buffers — per-chunk mid/offset tables and the merge
 * scratch — so warm partition rebuilds stop allocating; null keeps
 * per-call heap vectors. Purely a storage choice: the arrangement is
 * identical either way.
 */
std::uint32_t splitRange(BlockTree &tree, std::uint32_t begin,
                         std::uint32_t end, int dim, float split_value,
                         core::ThreadPool *pool = nullptr,
                         core::Arena *arena = nullptr);

/**
 * Rearrange positions [begin, end) of @p tree's working arrays (moved
 * together, as in splitRange) so that every point of [begin, median)
 * compares <= every point of [median, end) on @p dim, where
 * median = begin + size / 2 — the arrangement the KD-tree builder
 * needs around its fixed median position.
 *
 * Slices below kSplitParallelCutoff run std::nth_element over
 * (key, slot) pairs and then permute the four arrays by slot. The
 * arrangement of nth_element depends only on its comparison outcomes,
 * so this is exactly the arrangement std::nth_element gives order()
 * with a comparator on the points' coordinates.
 * Larger slices run a deterministic quickselect over parallel
 * splitRange with extrema-midpoint pivots, cutting the serial
 * median-selection prefix at the tree root. As with splitRange, the
 * algorithm choice depends only on the slice size, so results are
 * identical at any thread count.
 */
void medianSplit(BlockTree &tree, std::uint32_t begin, std::uint32_t end,
                 int dim, core::ThreadPool *pool = nullptr,
                 core::Arena *arena = nullptr);

/**
 * Min/max of coordinate @p dim over positions [begin, end) of
 * @p tree's points(): the sequential std::min/std::max fold
 * (core::simd::extrema), on the calling thread. The scan streams one
 * contiguous array at memory speed, so a pool dispatch would cost
 * more than it saves, as it does for the chunked split's merge.
 */
std::pair<float, float> rangeExtrema(const BlockTree &tree,
                                     std::uint32_t begin,
                                     std::uint32_t end, int dim);

} // namespace fc::part::detail

#endif // FC_PARTITION_DETAIL_H
