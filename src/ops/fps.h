/**
 * @file
 * Farthest Point Sampling: global (paper §II-B) and block-wise
 * (paper §IV-B, "Block-Wise Sampling").
 *
 * Global FPS is the O(n^2) baseline: every iteration updates the
 * distance of all points to the sampled set and picks the argmax.
 * Block-wise FPS runs an independent FPS inside every leaf block of a
 * BlockTree with one fixed sampling rate, and concatenates the
 * results — the decomposition that makes sampling block-parallel.
 *
 * Both run core::simd::fpsLeaf, the one FPS kernel: global FPS calls
 * it once over the whole cloud on the calling thread, and block-wise
 * FPS once per leaf. Block-wise FPS dispatches its per-leaf work items
 * over an optional core::ThreadPool; per-leaf quotas are prefix-summed
 * up front so every leaf writes a disjoint slice of the output
 * directly, and the result is bit-identical to the sequential path at
 * any thread count. Both compute their stats in closed form.
 */

#ifndef FC_OPS_FPS_H
#define FC_OPS_FPS_H

#include <cstdint>
#include <vector>

#include "dataset/point_cloud.h"
#include "ops/op_stats.h"
#include "partition/block_tree.h"

namespace fc::core {
class ThreadPool;
class Workspace;
}

namespace fc::ops {

/** Result of a global sampling operation. */
struct SampleResult
{
    /** Sampled point indices (into the original cloud). */
    std::vector<PointIdx> indices;
    OpStats stats;
};

/** Result of block-wise sampling. */
struct BlockSampleResult
{
    /** Sampled point indices (into the original cloud). */
    std::vector<PointIdx> indices;

    /** DFT positions of the samples (parallel to indices). */
    std::vector<std::uint32_t> positions;

    /**
     * Per-leaf offsets into indices/positions: samples of leaf i are
     * [leaf_offsets[i], leaf_offsets[i+1]).
     */
    std::vector<std::uint32_t> leaf_offsets;

    OpStats stats;
};

/**
 * Options common to both FPS variants. Sampling always starts at the
 * first candidate (position 0 of the cloud, or of each leaf): the
 * paper starts at a random point, and a fixed start keeps every run
 * reproducible.
 */
struct FpsOptions
{
    /**
     * Model the RSPU window-check: already-sampled points are skipped
     * instead of re-visited. Does not change the result, only the
     * work counters (stats.skipped / points_visited).
     */
    bool window_check = true;

    /**
     * Block-quota policy for block-wise FPS. The paper's method uses
     * one fixed *rate* for every block (enabled by Fractal's balanced
     * blocks, §IV-B); PNNPU-style space-uniform designs assign a
     * fixed *count* per block, which distorts density on imbalanced
     * partitions — the root of their segmentation accuracy loss.
     */
    bool fixed_count_per_block = false;
};

/**
 * Global farthest point sampling over the whole cloud, starting at
 * point 0.
 *
 * One core::simd::fpsLeaf call over the cloud's soaInto() copy, whose
 * positions are the point ids, on the calling thread. The stats are
 * closed-form, as for one leaf of blockFarthestPointSample with
 * n = cloud size and q = the clamped sample count.
 *
 * @param cloud       input points
 * @param num_samples sampled-set size (clamped to cloud size)
 */
SampleResult farthestPointSample(const data::PointCloud &cloud,
                                 std::size_t num_samples,
                                 const FpsOptions &options = {});

/**
 * Workspace overload: writes into @p out (reusing its capacity) and
 * draws the coordinate copy and the distance table from @p ws's
 * arena — the allocation-free steady-state path (zero heap
 * allocations on warm same-shape calls). Identical output to the
 * value-returning form, which wraps this one.
 */
void farthestPointSample(const data::PointCloud &cloud,
                         std::size_t num_samples,
                         const FpsOptions &options, core::Workspace &ws,
                         SampleResult &out);

/**
 * Block-wise FPS: per-leaf independent FPS at one fixed rate.
 *
 * Each leaf contributes round(rate * leaf_size) samples (at least one
 * for non-empty leaves, so no region disappears), matching the paper's
 * fixed-rate scheme that relies on Fractal's balanced blocks.
 *
 * One core::simd::fpsLeaf call runs a leaf's whole quota over the
 * tree's DFT-ordered coordinates, with its distance table from @p ws's
 * arena. The stats are closed-form: a leaf of n points with quota q
 * costs q iterations and (q - 1) * n - q * (q - 1) / 2 distance
 * evaluations (each sweep skips the samples taken so far), and visits
 * that many candidates with the window check, skipping the other
 * q * (q - 1) / 2, or (q - 1) * n without it — what a per-sweep count
 * of the serial loop adds up to.
 *
 * @param cloud  input points (original order)
 * @param tree   partition (DFT layout)
 * @param rate   target sampling rate in (0, 1]
 * @param pool   optional thread pool; null = sequential
 */
BlockSampleResult blockFarthestPointSample(const data::PointCloud &cloud,
                                           const part::BlockTree &tree,
                                           double rate,
                                           const FpsOptions &options = {},
                                           core::ThreadPool *pool = nullptr);

/** Workspace overload of block-wise FPS (see farthestPointSample). */
void blockFarthestPointSample(const data::PointCloud &cloud,
                              const part::BlockTree &tree, double rate,
                              const FpsOptions &options,
                              core::ThreadPool *pool,
                              core::Workspace &ws,
                              BlockSampleResult &out);

} // namespace fc::ops

#endif // FC_OPS_FPS_H
