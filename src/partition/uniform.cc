#include "partition/uniform.h"

#include "core/parallel.h"
#include "core/workspace.h"
#include "partition/detail.h"

namespace fc::part {

namespace {

using detail::SplitRec;

struct Builder
{
    BlockTree &tree;
    core::ThreadPool *pool;
    core::Arena &arena; ///< split records; reclaimed by Arena::reset
    std::uint16_t target_depth;

    /**
     * @p cell is the node's space cell (not the point bounds); splits
     * happen at the cell's spatial midpoint regardless of the data.
     * Mutates only positions [begin, end) of the tree's working arrays
     * and records the split structure for the replay. Returns null at
     * the target depth.
     */
    SplitRec *
    build(std::uint32_t begin, std::uint32_t end, std::uint16_t depth,
          int dim_counter, Aabb cell)
    {
        if (depth >= target_depth)
            return nullptr; // Leaf (possibly empty).

        SplitRec *rec = arena.create<SplitRec>();
        const int dim = dim_counter % 3;
        const float mid = cell.midpoint(dim);
        const std::uint32_t split = detail::splitRange(
            tree, begin, end, dim, mid, detail::splitPool(pool, depth),
            &arena);
        rec->local.elements_traversed += end - begin;
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
            pool, end - begin,
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
UniformPartitioner::partitionInto(const data::PointCloud &cloud,
                                  const PartitionConfig &config,
                                  core::ThreadPool *pool,
                                  core::Workspace &ws,
                                  PartitionResult &out) const
{
    detail::beginBuild(cloud, Method::Uniform, config, out);

    // Fixed depth: enough levels that a uniform cloud would satisfy
    // the threshold.
    std::uint16_t depth = 0;
    std::size_t blocks_needed =
        (cloud.size() + config.threshold - 1) / config.threshold;
    std::size_t blocks = 1;
    while (blocks < blocks_needed && depth < config.max_depth) {
        blocks *= 2;
        ++depth;
    }

    // Phase 1 (parallel): split the tree's working arrays in place and
    // record the split structure. Phase 2 (sequential, cheap): replay
    // the records into nodes in sequential allocation order.
    Builder builder{out.tree, pool, ws.arena(), depth};
    SplitRec *root_rec = nullptr;
    if (cloud.size() > 0)
        root_rec = builder.build(0, out.tree.numPoints(), 0,
                                 config.first_dim, cloud.bounds());
    detail::finishBuild(root_rec, out);
    // Space-uniform partitioning needs one streaming pass per level
    // (split planes are known a priori; no extrema traversals).
    out.stats.traversal_passes = depth;
}

} // namespace fc::part
