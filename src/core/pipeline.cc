#include "core/pipeline.h"

#include "common/logging.h"

// Layering note: this file must not reach up into serve/ — the core
// library is a standalone CMake target the serving layer links
// against, never the reverse. The blocking runBatch wrapper (which
// rides the async serving path) therefore lives in
// serve/run_batch.cc, inside the fc_serve target.

namespace fc {

namespace {

/** Build the pool an options struct asks for (null = sequential). */
std::shared_ptr<core::ThreadPool>
makePool(unsigned num_threads)
{
    if (core::ThreadPool::resolveThreadCount(num_threads) <= 1)
        return nullptr;
    return std::make_shared<core::ThreadPool>(num_threads);
}

} // namespace

FractalCloudPipeline::FractalCloudPipeline(data::PointCloud cloud,
                                           const PipelineOptions &options)
    : cloud_(std::move(cloud)), options_(options),
      pool_(makePool(options.num_threads))
{
    fc_assert(!cloud_.empty(), "pipeline requires a non-empty cloud");
    const auto partitioner = part::makePartitioner(options_.method);
    part::PartitionConfig config;
    config.threshold = options_.threshold;
    partition_ = partitioner->partition(cloud_, config, pool_.get());
}

data::PointCloud
FractalCloudPipeline::reordered() const
{
    return cloud_.permuted(partition_.tree.order());
}

ops::BlockSampleResult
FractalCloudPipeline::sample(double rate) const
{
    ops::FpsOptions fps;
    fps.window_check = options_.window_check;
    return ops::blockFarthestPointSample(cloud_, partition_.tree, rate,
                                         fps, pool_.get());
}

ops::NeighborResult
FractalCloudPipeline::group(const ops::BlockSampleResult &centers,
                            float radius, std::size_t k) const
{
    return ops::blockBallQuery(cloud_, partition_.tree, centers, radius,
                               k, pool_.get());
}

ops::GatherResult
FractalCloudPipeline::gather(const ops::BlockSampleResult &centers,
                             const ops::NeighborResult &neighbors) const
{
    return ops::blockGatherNeighborhoods(
        cloud_, partition_.tree, centers.indices, centers.leaf_offsets,
        neighbors, pool_.get());
}

ops::InterpolateResult
FractalCloudPipeline::interpolate(
    const ops::BlockSampleResult &sampled,
    const std::vector<float> &known_features, std::size_t channels,
    std::size_t k) const
{
    return ops::blockInterpolate(cloud_, partition_.tree, known_features,
                                 channels, sampled.indices, k,
                                 pool_.get());
}

void
FractalCloudPipeline::infer(const nn::Network &network,
                            nn::InferenceResult &out) const
{
    nn::BackendOptions backend;
    backend.method = options_.method;
    backend.threshold = options_.threshold;
    // The pipeline's pool drives the network end to end: per-stage
    // re-partition, block ops, MLPs, pooling, interpolation. The
    // partition built at construction is reused for SA stage 0.
    backend.pool = pool_.get();
    backend.root_partition = &partition_;
    std::lock_guard<std::mutex> lock(infer_state_->mutex);
    infer_state_->workspace.reset();
    network.run(cloud_, backend, infer_state_->workspace, out);
}

nn::InferenceResult
FractalCloudPipeline::infer(const nn::Network &network) const
{
    nn::InferenceResult out;
    infer(network, out);
    return out;
}

accel::RunReport
FractalCloudPipeline::estimate(const nn::ModelConfig &model) const
{
    const accel::AcceleratorModel accel =
        accel::makeFractalCloud(options_.threshold);
    const accel::NetworkShape shape =
        accel::buildNetworkShape(model, cloud_.size());
    const accel::BlockSummary blocks =
        accel::summarizeBlocks(partition_);
    return accel.runShape(shape, blocks);
}

} // namespace fc
