/**
 * @file
 * Neighbor searching: Ball Query (grouping), in global and block-wise
 * forms, and global K-Nearest-Neighbors (interpolation) (paper §II-B
 * and §IV-B, "Block-Wise Neighbor Searching"). The block-wise KNN of
 * interpolation is part of ops::blockInterpolate (ops/interpolate.h),
 * which blends each query's neighbors in the same pass.
 *
 * Ball Query selects up to K points within radius R of a center (the
 * first K in scan order, PointNet++ semantics; empty slots are padded
 * with the first neighbor). KNN selects the K closest points with no
 * radius bound.
 *
 * The block-wise ball query restricts the candidate set of a center
 * in leaf L to the range of searchSpaceNode(L) — the leaf itself at
 * depth <= 1, otherwise its immediate parent (paper Fig. 7(a)). It
 * reads only the block layout: each center at its DFT position and
 * each search space as one contiguous slice of
 * BlockTree::points(), mapping hits to point ids last.
 * blockGroupGather is the same per-leaf scan with a gather target
 * (paper §IV-B, "Block-Wise Gathering"): while a center's hits are
 * still DFT positions it writes their [dx, dy, dz | features] rows,
 * so no second pass re-reads the neighbor table.
 *
 * Both dispatch per-leaf work items over an optional
 * core::ThreadPool. Every center owns a fixed k-wide output row, so
 * parallel execution writes disjoint slots and the result is
 * bit-identical to the sequential path at any thread count.
 */

#ifndef FC_OPS_NEIGHBOR_H
#define FC_OPS_NEIGHBOR_H

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/point_cloud.h"
#include "ops/fps.h"
#include "ops/op_stats.h"
#include "partition/block_tree.h"

namespace fc::core {
class ThreadPool;
class Workspace;
}

namespace fc::ops {

struct GatherResult; // ops/gather.h

/** Dense [num_centers x k] neighbor table. */
struct NeighborResult
{
    std::size_t num_centers = 0;
    std::size_t k = 0;

    /** Row-major neighbor indices (original cloud ids), padded. */
    std::vector<PointIdx> indices;

    /** Number of real (un-padded) neighbors per center. */
    std::vector<std::uint32_t> counts;

    OpStats stats;

    PointIdx
    neighbor(std::size_t center, std::size_t j) const
    {
        return indices[center * k + j];
    }
};

/**
 * Global ball query: candidates are the whole cloud.
 *
 * Center rows are independent and dispatch in chunks over @p pool;
 * every center owns a fixed k-wide output row, so the table is
 * bit-identical to the sequential path at any thread count.
 *
 * @param cloud   candidate points
 * @param centers center indices into @p cloud
 * @param radius  search radius R
 * @param k       maximum neighbors per center
 * @param pool    optional thread pool; null = sequential
 */
NeighborResult ballQuery(const data::PointCloud &cloud,
                         const std::vector<PointIdx> &centers,
                         float radius, std::size_t k,
                         core::ThreadPool *pool = nullptr);

/** Workspace overload: writes into @p out reusing its capacity (the
 *  allocation-free steady-state path; see core/workspace.h). */
void ballQuery(const data::PointCloud &cloud,
               const std::vector<PointIdx> &centers, float radius,
               std::size_t k, core::ThreadPool *pool,
               core::Workspace &ws, NeighborResult &out);

/**
 * Global KNN: the k nearest candidates for each query coordinate.
 *
 * Query rows are independent and dispatch in chunks over @p pool,
 * exactly as ballQuery's center rows do, so the table is
 * bit-identical to the sequential path at any thread count.
 *
 * @param cloud      candidate points
 * @param candidates candidate indices into @p cloud, each < cloud.size()
 * @param queries    query coordinates
 * @param k          neighbor count
 * @param pool       optional thread pool; null = sequential
 */
NeighborResult knnSearch(const data::PointCloud &cloud,
                         const std::vector<PointIdx> &candidates,
                         std::span<const Vec3> queries, std::size_t k,
                         core::ThreadPool *pool = nullptr);

/** Workspace overload of knnSearch (capacity-reusing @p out). */
void knnSearch(const data::PointCloud &cloud,
               const std::vector<PointIdx> &candidates,
               std::span<const Vec3> queries, std::size_t k,
               core::ThreadPool *pool, core::Workspace &ws,
               NeighborResult &out);

/**
 * Block-wise ball query. Centers come from block-wise sampling; the
 * candidate range of each center is its leaf's search-space node.
 * Each center is read from tree.points() at centers.positions[ci],
 * which must hold point centers.indices[ci] (checked per center).
 */
NeighborResult blockBallQuery(const data::PointCloud &cloud,
                              const part::BlockTree &tree,
                              const BlockSampleResult &centers,
                              float radius, std::size_t k,
                              core::ThreadPool *pool = nullptr);

/** Workspace overload of blockBallQuery (capacity-reusing @p out). */
void blockBallQuery(const data::PointCloud &cloud,
                    const part::BlockTree &tree,
                    const BlockSampleResult &centers, float radius,
                    std::size_t k, core::ThreadPool *pool,
                    core::Workspace &ws, NeighborResult &out);

/**
 * blockBallQuery and blockGatherNeighborhoods (ops/gather.h) in one
 * per-leaf pass: @p neighbors and @p gathered equal what the two ops
 * write, bit for bit and stats included, when the gather's cloud
 * carries @p features. The coordinate channels come from
 * tree.points() at the hits' DFT positions; the feature channels come
 * by point id from @p features, row-major [cloud.size() x
 * feature_dim] (empty when @p feature_dim is 0).
 */
void blockGroupGather(const data::PointCloud &cloud,
                      const part::BlockTree &tree,
                      const BlockSampleResult &centers, float radius,
                      std::size_t k, std::span<const float> features,
                      std::size_t feature_dim, core::ThreadPool *pool,
                      core::Workspace &ws, NeighborResult &neighbors,
                      GatherResult &gathered);

} // namespace fc::ops

#endif // FC_OPS_NEIGHBOR_H
