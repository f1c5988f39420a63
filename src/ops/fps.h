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
 * Block-wise FPS dispatches its per-leaf work items over an optional
 * core::ThreadPool; per-leaf quotas are prefix-summed up front so
 * every leaf writes a disjoint slice of the output directly, and the
 * result is bit-identical to the sequential path at any thread count.
 * Each leaf runs its whole quota in one core::simd::fpsLeaf call.
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
 * Global farthest point sampling over the whole cloud.
 *
 * The per-iteration distance-update/argmax sweep dispatches in chunks
 * over @p pool; chunk-local maxima fold in chunk order with the same
 * strictly-greater comparison as the serial loop, so the sampled set
 * is bit-identical at any thread count.
 *
 * @param cloud       input points
 * @param num_samples sampled-set size (clamped to cloud size)
 * @param pool        optional thread pool; null = sequential
 */
SampleResult farthestPointSample(const data::PointCloud &cloud,
                                 std::size_t num_samples,
                                 const FpsOptions &options = {},
                                 core::ThreadPool *pool = nullptr);

/**
 * Workspace overload: writes into @p out (reusing its capacity) and
 * draws the distance/flag scratch from @p ws's arena — the
 * allocation-free steady-state path (zero heap allocations on warm
 * same-shape calls with a null pool). Identical output to the
 * value-returning form, which wraps this one.
 */
void farthestPointSample(const data::PointCloud &cloud,
                         std::size_t num_samples,
                         const FpsOptions &options,
                         core::ThreadPool *pool, core::Workspace &ws,
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
