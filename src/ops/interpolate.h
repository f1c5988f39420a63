/**
 * @file
 * Feature interpolation for the propagation stage (paper §II-A,
 * Fig. 2(c)): each dense point receives the inverse-distance-weighted
 * average of the features of its K nearest known (sampled) points
 * (K = 3 in PointNet++ and descendants).
 *
 * The block-wise variant (paper "Block-Wise Interpolation", part of
 * BWI in Fig. 18) restricts the candidate known points to the
 * query's block search space. It is one pass per leaf: each query's
 * top-k and its blend, from the top-k's own distances. Both variants
 * take the known points the same way, as cloud ids with feature rows
 * aligned to them, and share one blend.
 */

#ifndef FC_OPS_INTERPOLATE_H
#define FC_OPS_INTERPOLATE_H

#include <vector>

#include "dataset/point_cloud.h"
#include "ops/neighbor.h"
#include "partition/block_tree.h"

namespace fc::core {
class ThreadPool;
class Workspace;
}

namespace fc::ops {

/** Interpolated feature matrix. */
struct InterpolateResult
{
    std::size_t num_points = 0;
    std::size_t channels = 0;

    /** Row-major [num_points x channels]. */
    std::vector<float> values;

    OpStats stats;
};

/**
 * Inverse-distance-weighted interpolation from a known neighbor table.
 *
 * @param cloud          target points (row per point)
 * @param known_features row-major [num_known x channels], aligned with
 *                       @p known_indices
 * @param known_indices  cloud indices of the known (sampled) points,
 *                       each < cloud.size()
 * @param neighbors      KNN table: rows = cloud points, entries =
 *                       cloud indices that MUST appear in
 *                       @p known_indices
 */
InterpolateResult
interpolateFeatures(const data::PointCloud &cloud,
                    const std::vector<float> &known_features,
                    std::size_t channels,
                    const std::vector<PointIdx> &known_indices,
                    const NeighborResult &neighbors,
                    core::ThreadPool *pool = nullptr);

/** Workspace overload: the known-point lookup table comes from
 *  @p ws's arena and @p out reuses its capacity (the allocation-free
 *  steady-state path; see core/workspace.h). */
void interpolateFeatures(const data::PointCloud &cloud,
                         const std::vector<float> &known_features,
                         std::size_t channels,
                         const std::vector<PointIdx> &known_indices,
                         const NeighborResult &neighbors,
                         core::ThreadPool *pool, core::Workspace &ws,
                         InterpolateResult &out);

/**
 * Convenience wrapper: global k-NN (knnSearch) then interpolation.
 * Both the KNN query rows and the blend rows dispatch over @p pool;
 * results match sequential execution bit-for-bit.
 */
InterpolateResult
globalInterpolate(const data::PointCloud &cloud,
                  const std::vector<float> &known_features,
                  std::size_t channels,
                  const std::vector<PointIdx> &known_indices,
                  std::size_t k = 3, core::ThreadPool *pool = nullptr);

/** Workspace overload of globalInterpolate (the KNN table lives in a
 *  workspace slot; @p out reuses capacity). */
void globalInterpolate(const data::PointCloud &cloud,
                       const std::vector<float> &known_features,
                       std::size_t channels,
                       const std::vector<PointIdx> &known_indices,
                       std::size_t k, core::ThreadPool *pool,
                       core::Workspace &ws, InterpolateResult &out);

/**
 * Block-wise interpolation: each point blends its k nearest known
 * points among those inside its leaf's search space
 * (part::BlockTree::searchSpaceNode; all known points when the space
 * holds none). Arguments are globalInterpolate's plus the tree, which
 * must come from partitioning @p cloud. Known ids must be distinct
 * and in range. Leaves dispatch over @p pool; each output row is
 * owned by exactly one work item, so results match sequential
 * execution bit-for-bit. Rows and stats equal interpolateFeatures
 * over the matching block KNN table.
 */
InterpolateResult
blockInterpolate(const data::PointCloud &cloud,
                 const part::BlockTree &tree,
                 const std::vector<float> &known_features,
                 std::size_t channels,
                 const std::vector<PointIdx> &known_indices,
                 std::size_t k = 3, core::ThreadPool *pool = nullptr);

/** Workspace overload of blockInterpolate (the known-point list is
 *  arena scratch; @p out reuses capacity). */
void blockInterpolate(const data::PointCloud &cloud,
                      const part::BlockTree &tree,
                      const std::vector<float> &known_features,
                      std::size_t channels,
                      const std::vector<PointIdx> &known_indices,
                      std::size_t k, core::ThreadPool *pool,
                      core::Workspace &ws, InterpolateResult &out);

} // namespace fc::ops

#endif // FC_OPS_INTERPOLATE_H
