#include "partition/kdtree.h"

#include "core/parallel.h"
#include "core/workspace.h"
#include "partition/detail.h"

namespace fc::part {

namespace {

using detail::SplitRec;

/** Merge-sort comparator count for n elements: n * ceil(log2 n). */
std::uint64_t
sortCost(std::uint32_t n)
{
    if (n <= 1)
        return 0;
    std::uint64_t levels = 0;
    std::uint32_t v = n - 1;
    while (v > 0) {
        ++levels;
        v >>= 1;
    }
    return static_cast<std::uint64_t>(n) * levels;
}

struct Builder
{
    const PartitionConfig &config;
    BlockTree &tree;
    core::ThreadPool *pool;
    core::Arena &arena; ///< split records; reclaimed by Arena::reset

    SplitRec *
    build(std::uint32_t begin, std::uint32_t end, std::uint16_t depth,
          int dim_counter)
    {
        const std::uint32_t size = end - begin;
        if (size <= config.threshold || depth >= config.max_depth ||
            size < 2) {
            return nullptr;
        }

        SplitRec *rec = arena.create<SplitRec>();
        const int dim = dim_counter % 3;
        // Median split: the hardware performs a full merge sort per
        // node (PointAcc-style sorter, reused by Crescent); we realize
        // it with a median selection but charge the full sort cost.
        // Small slices use nth_element; root-scale slices run the
        // parallel quickselect over chunked splitRange, so even the
        // first (serial-prefix) selections use the pool. Subtree
        // tasks touch disjoint slices of the working arrays, so the
        // selection is safe to run concurrently across siblings.
        const std::uint32_t median = begin + size / 2;
        detail::medianSplit(tree, begin, end, dim,
                            detail::splitPool(pool, depth), &arena);
        ++rec->local.num_sorts;
        rec->local.sort_compares += sortCost(size);
        rec->local.elements_traversed += size;
        ++rec->local.num_splits;

        rec->split = median;
        rec->dim = static_cast<std::int8_t>(dim);
        rec->value = tree.points().axis(dim)[median];

        const std::uint16_t child_depth =
            static_cast<std::uint16_t>(depth + 1);
        detail::forkJoin(
            pool, size,
            [this, begin, median, child_depth, dim_counter, rec] {
                rec->left =
                    build(begin, median, child_depth, dim_counter + 1);
            },
            [this, median, end, child_depth, dim_counter, rec] {
                rec->right =
                    build(median, end, child_depth, dim_counter + 1);
            });
        return rec;
    }
};

} // namespace

void
KdTreePartitioner::partitionInto(const data::PointCloud &cloud,
                                 const PartitionConfig &config,
                                 core::ThreadPool *pool,
                                 core::Workspace &ws,
                                 PartitionResult &out) const
{
    detail::beginBuild(cloud, Method::KdTree, config, out);
    Builder builder{config, out.tree, pool, ws.arena()};
    detail::finishBuild(
        builder.build(0, out.tree.numPoints(), 0, config.first_dim), out);
    // KD-tree sorts are exclusive and serial: every internal node is
    // its own pass (Fig. 5 left). traversal_passes therefore equals
    // the number of sorts.
    out.stats.traversal_passes =
        static_cast<std::uint32_t>(out.stats.num_sorts);
}

} // namespace fc::part
