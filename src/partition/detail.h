/**
 * @file
 * Internal helpers shared by the concrete partitioners. Not part of
 * the public API.
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
 * must touch disjoint state (the builders hand them disjoint order
 * slices).
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
 * One performed split, recorded during a (possibly parallel) build
 * phase and replayed sequentially into the BlockTree.
 *
 * The parallel builders only mutate disjoint slices of the DFT order;
 * node allocation is deferred to replaySplits(), which walks this
 * record tree in exactly the order the sequential builder allocates
 * nodes — so the resulting BlockTree is bit-identical at any thread
 * count.
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
 * Replay a record tree into @p tree, allocating nodes in the exact
 * order of the sequential builders (left, right, then left's
 * subtree), and fold each record's stat deltas in the same pre-order.
 */
void replaySplits(BlockTree &tree, NodeIdx node_idx,
                  const SplitRec *rec, PartitionStats &stats);

/**
 * Fill node.bounds for every node from the actual point positions:
 * leaves from their ranges, internal nodes as the union of children.
 * The same pass writes the tree's DFT-ordered coordinates
 * (BlockTree::points()). Every partitioner ends with it.
 */
void computeBounds(BlockTree &tree, const data::PointCloud &cloud);

/**
 * Slices at or above this many points partition chunk-wise (parallel
 * splitRange below); smaller slices use one plain std::partition.
 * The choice depends only on the slice size — never on the pool — so
 * any thread count (including none) produces the same arrangement.
 */
inline constexpr std::uint32_t kSplitParallelCutoff = 8192;

/** Chunk length of the parallel splitRange phases. */
inline constexpr std::uint32_t kSplitGrain = 4096;

/**
 * Partition the order slice [begin, end) of @p tree around
 * @p split_value on @p dim; returns the index of the first element of
 * the right side. Points with coordinate < split_value go left.
 *
 * Slices of at least kSplitParallelCutoff points run the parallel
 * root-split algorithm: fixed kSplitGrain chunks are std::partition'd
 * independently (dispatched over @p pool), then merged two-way in
 * chunk order — left halves first, right halves after — so the result
 * is a pure function of the input slice, bit-identical at any thread
 * count. On already-partitioned input (including all-equal
 * coordinates) every phase is the identity, matching a single
 * std::partition byte for byte. Smaller slices take exactly the
 * sequential std::partition path.
 *
 * @p arena (optional, here and in medianSplit/rangeExtrema) supplies
 * the chunked path's staging buffers — per-chunk mid/offset tables
 * and the merge scratch — so warm partition rebuilds stop allocating;
 * null keeps the historical per-call heap vectors. Purely a storage
 * choice: the arrangement is identical either way.
 */
std::uint32_t splitRange(BlockTree &tree, const data::PointCloud &cloud,
                         std::uint32_t begin, std::uint32_t end, int dim,
                         float split_value,
                         core::ThreadPool *pool = nullptr,
                         core::Arena *arena = nullptr);

/**
 * Order-slice overload for builders that run before the BlockTree
 * exists (the parallel subtree builders mutate disjoint slices of the
 * bare DFT order).
 */
std::uint32_t splitRange(std::vector<PointIdx> &order,
                         const data::PointCloud &cloud,
                         std::uint32_t begin, std::uint32_t end, int dim,
                         float split_value,
                         core::ThreadPool *pool = nullptr,
                         core::Arena *arena = nullptr);

/**
 * Rearrange the order slice [begin, end) so that every element of
 * [begin, median) compares <= every element of [median, end) on
 * @p dim, where median = begin + size / 2 — the arrangement the
 * KD-tree builder needs around its fixed median position.
 *
 * Slices below kSplitParallelCutoff use std::nth_element (the
 * historical sequential path, preserved bit for bit). Larger slices
 * run a deterministic quickselect over parallel splitRange with
 * extrema-midpoint pivots, cutting the serial median-selection prefix
 * at the tree root. As with splitRange, the algorithm choice depends
 * only on the slice size, so results are identical at any thread
 * count.
 */
void medianSplit(std::vector<PointIdx> &order,
                 const data::PointCloud &cloud, std::uint32_t begin,
                 std::uint32_t end, int dim,
                 core::ThreadPool *pool = nullptr,
                 core::Arena *arena = nullptr);

/**
 * Min/max of coordinate @p dim over the order slice [begin, end).
 * Chunked over @p pool for large slices; min/max folds are exact, so
 * the result never depends on the chunking or thread count.
 */
std::pair<float, float> rangeExtrema(const std::vector<PointIdx> &order,
                                     const data::PointCloud &cloud,
                                     std::uint32_t begin,
                                     std::uint32_t end, int dim,
                                     core::ThreadPool *pool = nullptr,
                                     core::Arena *arena = nullptr);

} // namespace fc::part::detail

#endif // FC_PARTITION_DETAIL_H
