/**
 * @file
 * Gathering: retrieve feature rows by neighbor indices (paper §II-B),
 * with relative-coordinate augmentation as used by set-abstraction
 * layers, plus the block-wise access-pattern accounting of §IV-B
 * ("Block-Wise Gathering").
 *
 * Functionally, global and block-wise gathering return identical
 * values (the paper notes gathering "has no impact on network
 * accuracy"); they differ in memory behaviour, which the stats
 * capture: global gathering performs random accesses over the whole
 * feature space, block-wise gathering streams only the blocks of each
 * search space.
 */

#ifndef FC_OPS_GATHER_H
#define FC_OPS_GATHER_H

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/point_cloud.h"
#include "ops/neighbor.h"
#include "partition/block_tree.h"

namespace fc::core {
class ThreadPool;
class Workspace;
}

namespace fc::ops {

/** Gathered neighborhood tensor. */
struct GatherResult
{
    std::size_t num_centers = 0;
    std::size_t k = 0;
    std::size_t channels = 0; ///< 3 (rel. coords) + featureDim

    /** Row-major [num_centers x k x channels]. */
    std::vector<float> values;

    OpStats stats;

    float
    at(std::size_t center, std::size_t j, std::size_t c) const
    {
        return values[(center * k + j) * channels + c];
    }
};

/**
 * Gather neighbor features for each (center, neighbor) pair.
 *
 * Channel layout per neighbor: [dx, dy, dz, features...] where the
 * delta is neighbor minus center coordinate (the standard PointNet++
 * grouping layout). Padded neighbor slots replicate the pad index;
 * rows with no neighbors at all yield zeros.
 *
 * @param cloud     source of coordinates and features
 * @param centers   center indices (per neighbor-table row)
 * @param neighbors the neighbor table to gather
 */
GatherResult gatherNeighborhoods(const data::PointCloud &cloud,
                                 const std::vector<PointIdx> &centers,
                                 const NeighborResult &neighbors);

/** Workspace overload: writes into @p out reusing its capacity (the
 *  allocation-free steady-state path; see core/workspace.h). */
void gatherNeighborhoods(const data::PointCloud &cloud,
                         const std::vector<PointIdx> &centers,
                         const NeighborResult &neighbors,
                         core::Workspace &ws, GatherResult &out);

/**
 * Same values as gatherNeighborhoods but with block-wise memory
 * accounting: accesses are counted per block as streamed reads (the
 * DFT layout makes each block contiguous). Per-leaf work items run
 * over @p pool; rows are disjoint, so the values are bit-identical to
 * sequential execution.
 */
GatherResult blockGatherNeighborhoods(
    const data::PointCloud &cloud, const part::BlockTree &tree,
    const std::vector<PointIdx> &centers,
    const std::vector<std::uint32_t> &center_leaf_offsets,
    const NeighborResult &neighbors, core::ThreadPool *pool = nullptr);

/** Workspace overload of blockGatherNeighborhoods (capacity-reusing
 *  @p out). */
void blockGatherNeighborhoods(
    const data::PointCloud &cloud, const part::BlockTree &tree,
    const std::vector<PointIdx> &centers,
    const std::vector<std::uint32_t> &center_leaf_offsets,
    const NeighborResult &neighbors, core::ThreadPool *pool,
    core::Workspace &ws, GatherResult &out);

// ---------------------------------------------------------------------
// Fused feature gather + max-pool (delayed-aggregation inference)
// ---------------------------------------------------------------------
//
// The delayed order (Mesorasi-style; see nn::Aggregation and
// docs/ARCHITECTURE.md) runs the SA MLP once per unique point, so its
// aggregation step is an index-gather over the resulting *feature
// tensor* plus a max-pool over each center's k rows. These ops fuse
// the two: the m x k gathered rows are never materialized. @p features
// is any row-major [n x channels] buffer; the neighbor table supplies
// the row indices.

/**
 * out row i = max over slots j of features[neighbors.neighbor(i, j)],
 * folded in slot order exactly like nn::maxPoolGroups over the
 * gathered rows: slot 0 is copied, each later slot does
 * dst = std::max(dst, src), and a kInvalidPoint slot reads as a zero
 * row — bit for bit, NaN and signed zeros included.
 *
 * @p out holds num_centers * channels floats. Center rows dispatch in
 * chunks over @p pool into disjoint output rows: bit-identical at any
 * thread count, allocation-free. Global-access accounting: each
 * (center, neighbor) pair is a random read of an fp16 feature row
 * (2 bytes per channel).
 */
OpStats gatherMaxPool(std::span<const float> features,
                      std::size_t channels,
                      const NeighborResult &neighbors,
                      core::ThreadPool *pool, std::span<float> out);

/**
 * Block-wise twin of gatherMaxPool: identical values, per-leaf work
 * items over @p pool, and block-wise accounting (each non-empty leaf
 * streams its search-space block of the feature tensor once).
 */
OpStats blockGatherMaxPool(
    std::span<const float> features, std::size_t channels,
    const part::BlockTree &tree,
    const std::vector<std::uint32_t> &center_leaf_offsets,
    const NeighborResult &neighbors, core::ThreadPool *pool,
    std::span<float> out);

/**
 * The aggregation-step coordinate summary of the delayed order:
 * for every center i, the channel-wise max over its real neighbors j
 * of the relative coordinate (p_j - p_i) — the max-pool gatherMaxPool
 * applies to the feature rows, applied to the 3 relative-coordinate
 * channels the unique-point MLP did not see. @p out is resized to
 * centers.size() * 3 reusing capacity (zeros for centers with no real
 * neighbors). Center rows dispatch in chunks over @p pool;
 * per-center output rows are disjoint, so the result is bit-identical
 * at any thread count, and the warm path performs no heap allocation.
 */
void maxPoolRelativeCoords(const data::PointCloud &cloud,
                           const std::vector<PointIdx> &centers,
                           const NeighborResult &neighbors,
                           core::ThreadPool *pool, std::vector<float> &out);

} // namespace fc::ops

#endif // FC_OPS_GATHER_H
