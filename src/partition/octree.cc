#include "partition/octree.h"

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
     * arrays at the space midpoint of @p cell, mutating only that
     * slice and recording the split structure for the replay. Returns
     * null when the slice stays a leaf.
     */
    SplitRec *
    build(std::uint32_t begin, std::uint32_t end, std::uint16_t depth,
          int dim_counter, Aabb cell)
    {
        const std::uint32_t size = end - begin;
        if (size <= config.threshold || depth >= config.max_depth)
            return nullptr; // Leaf.

        const int dim = dim_counter % 3;
        const float extent = cell.hi[dim] - cell.lo[dim];
        SplitRec *rec = arena.create<SplitRec>();
        if (!(extent > 0.0f)) {
            // Degenerate cell (coincident points): give up. The
            // record (dim = -1) carries the retry count only.
            ++rec->local.degenerate_retries;
            return rec;
        }
        const float mid = cell.midpoint(dim);
        const std::uint32_t split = detail::splitRange(
            tree, begin, end, dim, mid, detail::splitPool(pool, depth),
            &arena);
        rec->local.elements_traversed += size;
        ++rec->local.num_splits;
        rec->split = split;
        rec->dim = static_cast<std::int8_t>(dim);
        rec->value = mid;

        Aabb left_cell = cell;
        left_cell.hi.at(dim) = mid;
        Aabb right_cell = cell;
        right_cell.lo.at(dim) = mid;
        const std::uint16_t child_depth =
            static_cast<std::uint16_t>(depth + 1);
        // Disjoint slices: fork left, build right on this thread.
        detail::forkJoin(
            pool, size,
            [this, begin, split, child_depth, dim_counter, left_cell,
             rec] {
                rec->left = build(begin, split, child_depth,
                                  dim_counter + 1, left_cell);
            },
            [this, split, end, child_depth, dim_counter, right_cell,
             rec] {
                rec->right = build(split, end, child_depth,
                                   dim_counter + 1, right_cell);
            });
        return rec;
    }
};

} // namespace

void
OctreePartitioner::partitionInto(const data::PointCloud &cloud,
                                 const PartitionConfig &config,
                                 core::ThreadPool *pool,
                                 core::Workspace &ws,
                                 PartitionResult &out) const
{
    detail::beginBuild(cloud, Method::Octree, config, out);
    // Phase 1 (parallel): split the tree's working arrays in place and
    // record the split structure — subtree tasks below the first
    // splits, and the chunked splitRange above them. Phase 2
    // (sequential, cheap): replay the records into nodes in sequential
    // allocation order.
    Builder builder{config, out.tree, pool, ws.arena()};
    SplitRec *root_rec = nullptr;
    if (cloud.size() > 0)
        root_rec = builder.build(0, out.tree.numPoints(), 0,
                                 /*dim_counter=*/0, cloud.bounds());
    detail::finishBuild(root_rec, out);
    // Octree needs level-order passes plus per-level occupancy
    // bookkeeping; the dynamic subdivision control adds a constant
    // factor modelled in the fractal-engine hardware model.
    out.stats.traversal_passes = detail::internalLevels(out.tree);
}

} // namespace fc::part
