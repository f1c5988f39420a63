/**
 * @file
 * Functional PNN inference with pluggable point-operation backends.
 *
 * The same fixed-weight network can run with global point operations
 * (the lossless PointAcc baseline) or with any partition method plus
 * any subset of the block-wise operations (BWS / BWG / BWI toggles) —
 * exactly the knobs behind the paper's accuracy results (Fig. 14,
 * Fig. 17) and the functional half of the BPPO ablation (Fig. 18).
 *
 * Per paper §IV, block structure is derived from the stage's input
 * coordinates on-chip ("on-chip fractal"), so each abstraction stage
 * re-partitions its own input when block ops are enabled.
 *
 * Execution is pool-driven end to end: BackendOptions::pool threads a
 * core::ThreadPool through every stage — re-partitioning, block-wise
 * point ops, per-row MLPs, per-group pooling, interpolation — with
 * output bit-identical to the sequential path at any thread count
 * (the same determinism contract as the rest of the runtime).
 */

#ifndef FC_NN_NETWORK_H
#define FC_NN_NETWORK_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dataset/point_cloud.h"
#include "nn/mlp.h"
#include "nn/models.h"
#include "ops/fps.h"
#include "ops/op_stats.h"
#include "partition/partitioner.h"

namespace fc::core {
class ThreadPool;
class Workspace;
namespace metrics {
class Registry;
}
}

namespace fc::nn {

/**
 * Execution order of every set-abstraction stage (the
 * gather -> MLP -> pool pipeline of §II-A).
 *
 * Eager is the historical gather-then-compute order: neighbor
 * grouping materializes one [rel-coord, feature] row per
 * (center, neighbor) pair and the stage MLP runs on every one of the
 * k copies of each point — k-fold redundant FLOP work.
 *
 * Delayed is the Mesorasi-style compute-then-aggregate order: the
 * stage MLP runs once per *unique* input point, grouping becomes an
 * index-gather over the resulting feature tensor, and max-pool
 * aggregation follows. The per-pair relative coordinate the eager
 * MLP consumed is summarized at the pooling step instead
 * (ops::maxPoolRelativeCoords) and concatenated into the coordinate
 * channels of the *next* stage's unique-point MLP input (stage 0
 * feeds zeros — each point taken relative to itself). Semantics are
 * equivalent up to a radius-bounded tolerance at the pooling step:
 * the two orders agree exactly when every neighborhood collapses to
 * its center (r_ij = 0) and drift apart by at most the MLP's
 * Lipschitz response to ||r_ij|| <= radius otherwise (see
 * docs/ARCHITECTURE.md and tests/test_delayed_aggregation.cc).
 *
 * Within each mode every runtime invariant is preserved: results are
 * bit-identical across thread counts, shard counts, and warm/cold
 * workspaces, and the warm same-shape run performs zero heap
 * allocations. Delayed executes strictly fewer MLP row-forwards
 * (InferenceResult::sa_mlp_rows: unique-point count vs gathered
 * count — bench_delayed_aggregation reports both).
 */
enum class Aggregation
{
    Eager,
    Delayed,
};

/** Point-operation backend selection. */
struct BackendOptions
{
    /** Partition method for block ops (None = pure global ops). */
    part::Method method = part::Method::None;

    /** Block threshold th (64 small-scale / 256 large-scale). */
    std::uint32_t threshold = 64;

    /** Block-wise sampling (BWS). */
    bool block_sampling = true;

    /** Block-wise grouping / neighbor search (BWG). */
    bool block_grouping = true;

    /** Block-wise interpolation (BWI). */
    bool block_interpolation = true;

    /**
     * Execution order of the set-abstraction stages (see
     * Aggregation). Eager = gather-then-compute (historical);
     * Delayed = unique-point MLPs before grouping, max-pool after —
     * strictly fewer MLP row-forwards at a documented radius-bounded
     * tolerance. Orthogonal to every other option: composes with
     * block ops, pool, root_partition, and metrics.
     */
    Aggregation aggregation = Aggregation::Eager;

    /**
     * Pool driving every stage of Network::run: the per-stage
     * on-chip re-partition, block-wise sampling / grouping /
     * gathering / interpolation, per-row MLP application, and
     * per-group max pooling. Null (or a single-thread pool) is the
     * exact sequential path; any thread count produces a
     * bit-identical InferenceResult. The pool is borrowed, never
     * owned — FractalCloudPipeline::infer passes its own pool, and
     * standalone users keep theirs alive across run() calls.
     */
    core::ThreadPool *pool = nullptr;

    /**
     * Optional precomputed partition of the *input* cloud, reused as
     * SA stage 0's on-chip partition when its method and threshold
     * match this backend (deeper stages always re-partition their own
     * input). Partition construction is deterministic, so reuse is a
     * pure wall-clock saving: the InferenceResult — including
     * partition_stats, which still charge stage 0's construction work
     * — is bit-identical to recomputing. Borrowed, never owned.
     * FractalCloudPipeline::infer and the serve inference stage pass
     * the partition they already built. It must partition the same
     * cloud run() gets: the block ops read coordinates from the
     * tree's copy (BlockTree::points()), and they assert on a point
     * count mismatch.
     */
    const part::PartitionResult *root_partition = nullptr;

    /**
     * Optional metrics sink. When set, run() records wall-clock time
     * per functional stage into nn.stage_us{stage=partition|fps|
     * neighbor|gather|mlp|interpolate} histograms — the measured
     * counterpart of the paper's Fig. 2 bottleneck split (neighbor
     * search and sampling dominating end-to-end latency). Under
     * Aggregation::Delayed the SA gather/mlp split is recorded as
     * nn.stage_us{stage=mlp_unique} (the unique-point MLP pass) and
     * nn.stage_us{stage=aggregate} (feature gather + max-pool +
     * rel-coord summary) instead, so the eager-vs-delayed shift is
     * directly measurable. Borrowed, never owned; instrument lookup
     * happens once per run() call, and recording is skipped entirely
     * when metrics sampling is off.
     */
    core::metrics::Registry *metrics = nullptr;

    bool
    anyBlockOp() const
    {
        return method != part::Method::None &&
               (block_sampling || block_grouping || block_interpolation);
    }
};

/** Output of one inference. */
struct InferenceResult
{
    /** Pooled embedding (classification) — [1 x c]. */
    Tensor embedding;

    /** Per-point features (segmentation) — [n x c]. */
    Tensor point_features;

    /** Aggregate functional work counters across all point ops. */
    ops::OpStats op_stats;

    /** Aggregate partitioning work across stages. */
    part::PartitionStats partition_stats;

    /** Total MLP multiply-accumulates. */
    std::uint64_t total_macs = 0;

    /**
     * Rows fed to the set-abstraction MLPs across all stages — the
     * measured half of the delayed-aggregation claim. Eager counts
     * the gathered rows (num_centers x k per stage), Delayed the
     * unique input points (n per stage); Delayed is strictly smaller
     * whenever any stage has sample_rate x k > 1 (every Table I
     * model). FP and head rows are identical in both modes and not
     * counted here.
     */
    std::uint64_t sa_mlp_rows = 0;
};

/**
 * A fixed-weight network instantiated from a ModelConfig.
 */
class Network
{
  public:
    /**
     * @param config stage configuration (Table I)
     * @param seed   weight seed; two Networks with equal config+seed
     *               have identical weights
     */
    Network(ModelConfig config, std::uint64_t seed = 42);

    /** Run inference over @p cloud using @p backend point ops. */
    InferenceResult run(const data::PointCloud &cloud,
                        const BackendOptions &backend = {}) const;

    /**
     * Workspace overload — the allocation-free steady-state path.
     * Every intermediate (per-stage partitions, level clouds and
     * feature tensors, gathered/grouped buffers, FP merge and
     * reorder scratch, MLP ping-pong rows) lives in named slots of
     * @p ws, and @p out is rewritten reusing its capacity. The
     * second and later calls with a same-shape cloud perform zero
     * heap allocations, sequential or pooled (chunk tasks ride the
     * pool's inline task ring, which stops growing once it has seen
     * its peak backlog). Results are bit-identical to the
     * value-returning form — which wraps this one — at any thread
     * count and any warm/cold state. @p ws is used single-owner;
     * call ws.reset() between requests.
     */
    void run(const data::PointCloud &cloud,
             const BackendOptions &backend, core::Workspace &ws,
             InferenceResult &out) const;

    const ModelConfig &config() const { return config_; }

    /** Output feature dimension of the embedding / point features. */
    std::size_t outputDim() const;

  private:
    ModelConfig config_;
    std::vector<Mlp> saMlps_;
    std::vector<Mlp> fpMlps_;
    Mlp headMlp_;

    /** Channel count entering SA stage i. */
    std::vector<std::size_t> levelChannels_;
};

/**
 * Group arbitrary sampled indices by leaf of @p tree, producing the
 * BlockSampleResult layout the block-wise ball query and gathers
 * expect (samples are reordered by DFT position). Network::run uses
 * it in the SA stage only, when global FPS feeds block grouping;
 * block interpolation takes the sampled ids as they are. Every index
 * must be < the tree's point count.
 */
ops::BlockSampleResult
makeBlockSample(const part::BlockTree &tree,
                const std::vector<PointIdx> &indices);

/** Workspace overload: the inverse-permutation scratch comes from
 *  @p ws's arena and @p out reuses its capacity. */
void makeBlockSample(const part::BlockTree &tree,
                     const std::vector<PointIdx> &indices,
                     core::Workspace &ws,
                     ops::BlockSampleResult &out);

} // namespace fc::nn

#endif // FC_NN_NETWORK_H
