#include "partition/fractal.h"

#include "core/parallel.h"
#include "core/workspace.h"
#include "partition/detail.h"

namespace fc::part {

namespace {

using detail::SplitRec;

struct Builder
{
    const PartitionConfig &config;
    BlockTree &tree;
    core::ThreadPool *pool;
    core::Arena &arena; ///< split records; reclaimed by Arena::reset

    /**
     * Recursively split positions [begin, end) of the tree's working
     * arrays, mutating only that slice and recording the split
     * structure for the replay (see detail::SplitRec). @p dim_counter
     * is the paper's cycling dimension index d. Returns null when the
     * slice stays a leaf.
     */
    SplitRec *
    build(std::uint32_t begin, std::uint32_t end, std::uint16_t depth,
          int dim_counter)
    {
        const std::uint32_t size = end - begin;
        if (size <= config.threshold || depth >= config.max_depth)
            return nullptr; // Leaf.

        SplitRec *rec = arena.create<SplitRec>();
        // Try the cycling axis first, then the other two for
        // degenerate (non-splittable) layouts.
        for (int attempt = 0; attempt < 3; ++attempt) {
            const int dim = (dim_counter + attempt) % 3;
            const auto [lo, hi] =
                detail::rangeExtrema(tree, begin, end, dim);
            rec->local.elements_traversed += size; // extrema traversal
            // Halve-then-add: lo + hi overflows to +/-inf for spans
            // beyond FLT_MAX, and an inf midpoint degenerates every
            // split (same guard as detail::medianSplit's pivot).
            const float mid = lo * 0.5f + hi * 0.5f;
            const std::uint32_t split = detail::splitRange(
                tree, begin, end, dim, mid,
                detail::splitPool(pool, depth), &arena);
            rec->local.elements_traversed += size; // partition traversal
            if (split == begin || split == end) {
                ++rec->local.degenerate_retries;
                continue;
            }
            ++rec->local.num_splits;
            rec->split = split;
            rec->dim = static_cast<std::int8_t>(dim);
            rec->value = mid;

            const std::uint16_t child_depth =
                static_cast<std::uint16_t>(depth + 1);
            const int next = dim_counter + attempt + 1;
            // Disjoint slices: fork left, build right on this thread.
            detail::forkJoin(
                pool, size,
                [this, begin, split, child_depth, next, rec] {
                    rec->left = build(begin, split, child_depth, next);
                },
                [this, split, end, child_depth, next, rec] {
                    rec->right = build(split, end, child_depth, next);
                });
            return rec;
        }
        // Degenerate on all three axes: coincident points; keep as a
        // leaf even above threshold. The record (dim = -1) carries
        // the traversal cost of the failed attempts.
        return rec;
    }
};

} // namespace

void
FractalPartitioner::partitionInto(const data::PointCloud &cloud,
                                  const PartitionConfig &config,
                                  core::ThreadPool *pool,
                                  core::Workspace &ws,
                                  PartitionResult &out) const
{
    detail::beginBuild(cloud, Method::Fractal, config, out);
    // Phase 1 (parallel): split the tree's working arrays in place and
    // record the split structure. Phase 2 (sequential, cheap): replay
    // the records into nodes, preserving the sequential allocation
    // order.
    Builder builder{config, out.tree, pool, ws.arena()};
    detail::finishBuild(
        builder.build(0, out.tree.numPoints(), 0, config.first_dim), out);
    // One level-parallel traversal pass per split level: the hardware
    // processes every node of a level concurrently (Fig. 5 right).
    out.stats.traversal_passes = detail::internalLevels(out.tree);
}

} // namespace fc::part
