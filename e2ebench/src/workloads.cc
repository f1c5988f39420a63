#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "dataset/s3dis.h"
#include "dataset/synthetic.h"
#include "nn/models.h"
#include "nn/network.h"
#include "storage/fcpc_writer.h"

namespace e2e {

using namespace fc;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

unsigned
servingThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

bool
configFor(const std::string &name, Config &out)
{
    // Sizes: an 8K-point S3DIS-like room keeps one semseg request
    // near 250 ms on one worker; a 128K-point LiDAR frame is the
    // paper's automotive regime; 16K-point blocks in groups of 64 give
    // ingestion passes of about a tenth of a second. Requests cycle
    // over 16 rooms / 8 frames so one odd input moves a run little.
    if (name == "semseg-interactive") {
        out = {Kind::Semseg, "semseg-interactive", 8192, 16, 0, 0, 1, 0.0};
        return true;
    }
    if (name == "lidar-pointops") {
        out = {Kind::Lidar, "lidar-pointops", 131072, 8, 0, 0, 1, 0.0};
        return true;
    }
    if (name == "ingest-mixed") {
        out = {Kind::Ingest, "ingest-mixed", 4096, 8, 16384, 64, 2, 40.0};
        return true;
    }
    return false;
}

const char *
workloadNames()
{
    return "semseg-interactive, lidar-pointops, ingest-mixed";
}

bool
makeInputs(const Config &config, std::uint64_t seed,
           const std::string &work_dir, Inputs &out)
{
    out = {};
    const std::uint64_t base = splitmix(seed);
    if (config.kind == Kind::Lidar) {
        Pcg32 rng(base);
        for (std::size_t i = 0; i < config.num_clouds; ++i)
            out.clouds.push_back(std::make_shared<const data::PointCloud>(
                data::makeLidarFrame(rng, config.cloud_points)));
        return true;
    }
    for (std::size_t i = 0; i < config.num_clouds; ++i)
        out.clouds.push_back(std::make_shared<const data::PointCloud>(
            data::makeS3disScene(config.cloud_points,
                                 splitmix(base + i))));
    if (config.kind != Kind::Ingest)
        return true;

    for (std::size_t i = 0; i < config.num_blocks; ++i)
        out.blocks.push_back(data::makeS3disScene(
            config.block_points, splitmix(base ^ (0xb10cULL << 32)) + i));
    if (work_dir.empty())
        return true;
    out.fcpc_path =
        work_dir + "/ingest-" + std::to_string(seed) + ".fcpc";
    return storage::writeFcpc(out.blocks, out.fcpc_path);
}

std::unique_ptr<nn::Network>
makeNetwork(const Config &config)
{
    if (config.kind != Kind::Semseg)
        return nullptr;
    return std::make_unique<nn::Network>(nn::pointNet2SemSeg(), 42);
}

BatchRequest
requestFor(const Config &config, const nn::Network *network)
{
    BatchRequest request; // rate 0.25, radius 0.2, 32 neighbors
    if (config.kind == Kind::Lidar)
        request.radius = 0.5f; // metres: street-scale neighborhoods
    if (config.kind == Kind::Semseg) {
        request.network = network;
        request.aggregation = nn::Aggregation::Delayed;
    }
    return request;
}

BatchResult
referenceFor(const data::PointCloud &cloud, const BatchRequest &request)
{
    PipelineOptions options;
    options.num_threads = 1;
    const FractalCloudPipeline pipeline(cloud, options);
    BatchResult out;
    out.sampled = pipeline.sample(request.sample_rate);
    out.grouped =
        pipeline.group(out.sampled, request.radius, request.neighbors);
    out.gathered = pipeline.gather(out.sampled, out.grouped);
    out.partition_stats = pipeline.partition().stats;
    out.num_blocks = pipeline.tree().leaves().size();
    if (request.network != nullptr) {
        nn::BackendOptions backend;
        backend.method = options.method;
        backend.threshold = options.threshold;
        backend.aggregation = request.aggregation;
        out.inference = request.network->run(cloud, backend);
    }
    return out;
}

std::vector<BatchResult>
referencesFor(const std::vector<const data::PointCloud *> &clouds,
              const BatchRequest &request)
{
    std::vector<BatchResult> out(clouds.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i = next++; i < clouds.size(); i = next++)
            out[i] = referenceFor(*clouds[i], request);
    };
    std::vector<std::thread> threads;
    const std::size_t n =
        std::min<std::size_t>(servingThreads(), clouds.size());
    for (std::size_t t = 1; t < n; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    return out;
}

namespace {

template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool
sameStats(const ops::OpStats &a, const ops::OpStats &b)
{
    return a.distance_computations == b.distance_computations &&
           a.points_visited == b.points_visited &&
           a.iterations == b.iterations && a.skipped == b.skipped &&
           a.bytes_gathered == b.bytes_gathered;
}

bool
samePartition(const part::PartitionStats &a, const part::PartitionStats &b)
{
    return a.elements_traversed == b.elements_traversed &&
           a.traversal_passes == b.traversal_passes &&
           a.num_sorts == b.num_sorts &&
           a.sort_compares == b.sort_compares &&
           a.degenerate_retries == b.degenerate_retries &&
           a.num_splits == b.num_splits;
}

bool
sameTensor(const nn::Tensor &a, const nn::Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           sameBytes(a.data(), b.data());
}

} // namespace

bool
sameResult(const BatchResult &a, const BatchResult &b)
{
    if (!sameBytes(a.sampled.indices, b.sampled.indices) ||
        !sameBytes(a.sampled.positions, b.sampled.positions) ||
        !sameBytes(a.sampled.leaf_offsets, b.sampled.leaf_offsets) ||
        !sameStats(a.sampled.stats, b.sampled.stats))
        return false;
    if (a.grouped.num_centers != b.grouped.num_centers ||
        a.grouped.k != b.grouped.k ||
        !sameBytes(a.grouped.indices, b.grouped.indices) ||
        !sameBytes(a.grouped.counts, b.grouped.counts) ||
        !sameStats(a.grouped.stats, b.grouped.stats))
        return false;
    if (a.gathered.num_centers != b.gathered.num_centers ||
        a.gathered.k != b.gathered.k ||
        a.gathered.channels != b.gathered.channels ||
        !sameBytes(a.gathered.values, b.gathered.values) ||
        !sameStats(a.gathered.stats, b.gathered.stats))
        return false;
    if (!samePartition(a.partition_stats, b.partition_stats) ||
        a.num_blocks != b.num_blocks ||
        a.inference.has_value() != b.inference.has_value())
        return false;
    if (!a.inference)
        return true;
    const nn::InferenceResult &x = *a.inference;
    const nn::InferenceResult &y = *b.inference;
    return sameTensor(x.embedding, y.embedding) &&
           sameTensor(x.point_features, y.point_features) &&
           sameStats(x.op_stats, y.op_stats) &&
           samePartition(x.partition_stats, y.partition_stats) &&
           x.total_macs == y.total_macs && x.sa_mlp_rows == y.sa_mlp_rows;
}

void
Counters::add(const BatchResult &result)
{
    elements_traversed += result.partition_stats.elements_traversed;
    num_blocks += result.num_blocks;
    distance_computations += result.sampled.stats.distance_computations +
                             result.grouped.stats.distance_computations +
                             result.gathered.stats.distance_computations;
    bytes_gathered += result.gathered.stats.bytes_gathered;
    if (result.inference) {
        total_macs += result.inference->total_macs;
        sa_mlp_rows += result.inference->sa_mlp_rows;
    }
}

void
Counters::print(const char *workload, std::uint64_t seed) const
{
    const std::pair<const char *, std::uint64_t> rows[] = {
        {"partition.elements_traversed", elements_traversed},
        {"partition.num_blocks", num_blocks},
        {"ops.distance_computations", distance_computations},
        {"ops.bytes_gathered", bytes_gathered},
        {"nn.total_macs", total_macs},
        {"nn.sa_mlp_rows", sa_mlp_rows},
    };
    for (const auto &[name, value] : rows)
        std::printf("counter %s %" PRIu64 " %s %" PRIu64 "\n", workload,
                    seed, name, value);
}

} // namespace e2e
