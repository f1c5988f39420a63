/**
 * @file
 * FractalCloudPipeline: the library's high-level public API.
 *
 * Wraps the full flow of the paper behind one object:
 *
 *   1. Fractal partitioning of a point cloud (Alg. 1) with the DFT
 *      memory layout,
 *   2. block-parallel point operations (sampling, grouping,
 *      gathering, interpolation),
 *   3. fixed-weight PNN inference with block-wise backends, and
 *   4. hardware latency/energy estimation on the FractalCloud
 *      accelerator model.
 *
 * Block-parallel here is literal: partitioning and the block-wise
 * ops dispatch their per-block work items over a core::ThreadPool
 * sized by PipelineOptions::num_threads, and every result is
 * bit-identical to the sequential path (num_threads = 1).
 *
 * For serving-shaped workloads, runBatch() processes many clouds
 * concurrently over one shared pool; it is the blocking wrapper
 * around the asynchronous submit/poll frontend in
 * serve/async_pipeline.h.
 *
 * See examples/quickstart.cpp for a guided tour.
 */

#ifndef FC_CORE_PIPELINE_H
#define FC_CORE_PIPELINE_H

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "accel/accelerator.h"
#include "core/parallel.h"
#include "core/workspace.h"
#include "dataset/point_cloud.h"
#include "nn/network.h"
#include "ops/fps.h"
#include "ops/gather.h"
#include "ops/interpolate.h"
#include "ops/neighbor.h"
#include "partition/partitioner.h"

namespace fc {

/** Pipeline configuration. */
struct PipelineOptions
{
    /** Partitioning strategy (Fractal is the paper's contribution). */
    part::Method method = part::Method::Fractal;

    /** Block threshold th: 64 for object-scale inputs, 256 for
     *  scene-scale (paper §VI-B). */
    std::uint32_t threshold = 256;

    /** Model the RSPU window-check when counting sampling work. */
    bool window_check = true;

    /**
     * Worker threads for block-parallel execution: 0 = all hardware
     * threads, 1 = the exact sequential path (no pool), n = a fixed
     * pool of n. Results are bit-identical at every setting.
     */
    unsigned num_threads = 0;
};

/** One request of the batched entry point. */
struct BatchRequest
{
    /** Block-wise FPS rate for the sampling stage. */
    double sample_rate = 0.25;

    /** Ball-query radius for the grouping stage. */
    float radius = 0.2f;

    /** Neighbors per center for grouping/gathering. */
    std::size_t neighbors = 32;

    /**
     * Optional end-to-end inference: run this fixed-weight network
     * over the cloud after the gather stage, with the serving pool
     * driving the network's internal stages (re-partition, block
     * ops, MLPs, pooling). Borrowed, never owned — the network must
     * outlive every request referencing it. Null = point ops only.
     */
    const nn::Network *network = nullptr;

    /**
     * Set-abstraction execution order for the optional inference
     * (see nn::Aggregation): Eager = gather-then-compute, Delayed =
     * unique-point MLPs before grouping. Ignored when network is
     * null. Per-request, so one serving fleet can mix both orders;
     * within each order results are bit-identical across shard and
     * thread counts.
     */
    nn::Aggregation aggregation = nn::Aggregation::Eager;
};

/** Per-cloud output of FractalCloudPipeline::runBatch. */
struct BatchResult
{
    ops::BlockSampleResult sampled;
    ops::NeighborResult grouped;
    ops::GatherResult gathered;
    part::PartitionStats partition_stats;
    std::size_t num_blocks = 0;

    /** Present iff BatchRequest::network was set. */
    std::optional<nn::InferenceResult> inference;
};

/**
 * A partitioned point cloud with block-parallel operations.
 *
 * The pipeline owns a copy of the cloud and its BlockTree; operations
 * return results in original-cloud index space. It also owns the
 * thread pool (when num_threads != 1) that all its operations share.
 */
class FractalCloudPipeline
{
  public:
    /** Partition @p cloud according to @p options. */
    FractalCloudPipeline(data::PointCloud cloud,
                         const PipelineOptions &options = {});

    const data::PointCloud &cloud() const { return cloud_; }
    const part::BlockTree &tree() const { return partition_.tree; }
    const part::PartitionResult &partition() const { return partition_; }
    const PipelineOptions &options() const { return options_; }

    /** The pipeline's pool; null when running sequentially. */
    core::ThreadPool *pool() const { return pool_.get(); }

    /** The cloud in DFT (block-contiguous) memory order. */
    data::PointCloud reordered() const;

    /** Block-wise farthest point sampling at a fixed rate. */
    ops::BlockSampleResult sample(double rate) const;

    /** Block-wise ball query around previously sampled centers. */
    ops::NeighborResult group(const ops::BlockSampleResult &centers,
                              float radius, std::size_t k) const;

    /** Block-wise gather of neighborhood features. */
    ops::GatherResult gather(const ops::BlockSampleResult &centers,
                             const ops::NeighborResult &neighbors) const;

    /** Block-wise 3-NN feature interpolation from sampled points. */
    ops::InterpolateResult
    interpolate(const ops::BlockSampleResult &sampled,
                const std::vector<float> &known_features,
                std::size_t channels, std::size_t k = 3) const;

    /**
     * Run a fixed-weight network with block-wise point operations.
     * The pipeline's pool drives every stage of the network (see
     * nn::BackendOptions::pool); results are bit-identical at any
     * num_threads setting.
     *
     * Intermediates come from the pipeline-owned workspace, so
     * repeated inference reuses warm buffers; only the returned
     * result is freshly allocated. For the fully allocation-free
     * steady state, use the out-parameter overload below.
     */
    nn::InferenceResult infer(const nn::Network &network) const;

    /**
     * Allocation-free steady-state inference: intermediates come
     * from the pipeline-owned workspace and @p out is rewritten
     * reusing its capacity. The second and later calls with the same
     * network perform zero heap allocations at any num_threads:
     * pooled chunk tasks ride the pool's inline task ring, which
     * stops growing once it has seen its peak backlog. Results are
     * bit-identical to infer(network) — warm or cold, at any thread
     * count. Thread-safe via an internal mutex (calls serialize).
     */
    void infer(const nn::Network &network,
               nn::InferenceResult &out) const;

    /**
     * Estimate latency/energy of one inference on the FractalCloud
     * accelerator (cycle-level model, Table II configuration).
     */
    accel::RunReport estimate(const nn::ModelConfig &model) const;

    /**
     * Batched, serving-shaped entry point: partition + sample +
     * group + gather every cloud over one pool sized by
     * options.num_threads. Implemented as a blocking wrapper around
     * serve::AsyncPipeline: each cloud is one FIFO-dispatched
     * request, and the work-conserving scheduler spills intra-cloud
     * block items into idle pool slots when in-flight requests
     * number fewer than threads (e.g. the tail of a batch). Output
     * order matches input order and every per-cloud result is
     * bit-identical to constructing a sequential pipeline for that
     * cloud. For non-blocking submit/poll with deadlines,
     * cancellation, shards, and priority classes, use
     * serve::AsyncPipeline directly.
     *
     * Layering: declared here because batching belongs to the core
     * API surface, but DEFINED in the fc_serve library
     * (serve/run_batch.cc) — the wrapper rides the async serving
     * path, and core never links upward. Link fc_serve to use it.
     */
    static std::vector<BatchResult>
    runBatch(const std::vector<data::PointCloud> &clouds,
             const PipelineOptions &options = {},
             const BatchRequest &request = {});

  private:
    data::PointCloud cloud_;
    PipelineOptions options_;
    std::shared_ptr<core::ThreadPool> pool_;
    part::PartitionResult partition_;

    /** Inference workspace + its guard, shared by copies of the
     *  pipeline (a shared_ptr keeps the pipeline copyable; the mutex
     *  serializes concurrent infer() calls). */
    struct InferState
    {
        std::mutex mutex;
        core::Workspace workspace;
    };
    std::shared_ptr<InferState> infer_state_ =
        std::make_shared<InferState>();
};

} // namespace fc

#endif // FC_CORE_PIPELINE_H
