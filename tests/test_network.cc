/**
 * @file
 * Tests for functional PNN inference with global and block-wise
 * backends.
 */

#include <cmath>
#include <gtest/gtest.h>
#include <new>

#include "core/metrics.h"
#include "core/workspace.h"
#include "dataset/modelnet.h"
#include "dataset/s3dis.h"
#include "nn/network.h"

namespace fc::nn {
namespace {

double
cosine(const Tensor &a, const Tensor &b)
{
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) {
        dot += static_cast<double>(a.at(0, c)) * b.at(0, c);
        na += static_cast<double>(a.at(0, c)) * a.at(0, c);
        nb += static_cast<double>(b.at(0, c)) * b.at(0, c);
    }
    return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12);
}

TEST(Network, ClassificationShapes)
{
    const Network net(pointNet2Classification(), 42);
    const data::PointCloud obj = data::makeModelNetObject(5, 256, 1);
    const InferenceResult r = net.run(obj);
    EXPECT_EQ(r.embedding.rows(), 1u);
    EXPECT_EQ(r.embedding.cols(), net.outputDim());
    EXPECT_GT(r.total_macs, 0u);
    EXPECT_GT(r.op_stats.distance_computations, 0u);
}

TEST(Network, DeterministicInference)
{
    const Network net(pointNeXtClassification(), 7);
    const data::PointCloud obj = data::makeModelNetObject(3, 256, 2);
    const InferenceResult a = net.run(obj);
    const InferenceResult b = net.run(obj);
    for (std::size_t c = 0; c < a.embedding.cols(); ++c)
        EXPECT_EQ(a.embedding.at(0, c), b.embedding.at(0, c));
}

TEST(Network, SegmentationShapes)
{
    const Network net(pointNet2SemSeg(), 42);
    const data::PointCloud scene = data::makeS3disScene(512, 3);
    const InferenceResult r = net.run(scene);
    EXPECT_EQ(r.point_features.rows(), scene.size());
    EXPECT_EQ(r.point_features.cols(), net.outputDim());
}

TEST(Network, BlockBackendCloseToGlobal)
{
    // The crux of the accuracy story: block-wise ops perturb the
    // embedding only slightly under Fractal partitioning.
    const Network net(pointNet2Classification(), 42);
    const data::PointCloud obj = data::makeModelNetObject(11, 512, 4);

    const InferenceResult global = net.run(obj);

    BackendOptions fractal;
    fractal.method = part::Method::Fractal;
    fractal.threshold = 64;
    const InferenceResult blocked = net.run(obj, fractal);

    EXPECT_GT(cosine(global.embedding, blocked.embedding), 0.90)
        << "fractal block ops changed the embedding too much";
}

TEST(Network, UniformBackendDegradesMoreThanFractal)
{
    // Fig. 3/Fig. 14 ordering at the operator level: space-uniform
    // partitioning hurts more than Fractal on clustered scenes.
    const Network net(pointNet2Classification(), 42);
    double cos_fractal_sum = 0.0, cos_uniform_sum = 0.0;
    for (int i = 0; i < 5; ++i) {
        const data::PointCloud obj =
            data::makeModelNetObject(5 + i * 7, 512,
                                     static_cast<std::uint64_t>(i));
        const InferenceResult global = net.run(obj);
        BackendOptions fractal;
        fractal.method = part::Method::Fractal;
        fractal.threshold = 64;
        BackendOptions uniform = fractal;
        uniform.method = part::Method::Uniform;
        cos_fractal_sum +=
            cosine(global.embedding, net.run(obj, fractal).embedding);
        cos_uniform_sum +=
            cosine(global.embedding, net.run(obj, uniform).embedding);
    }
    EXPECT_GE(cos_fractal_sum, cos_uniform_sum - 0.05)
        << "fractal should track global at least as well as uniform";
}

TEST(Network, BlockOpsReduceWork)
{
    const Network net(pointNet2SemSeg(), 42);
    const data::PointCloud scene = data::makeS3disScene(2048, 5);
    const InferenceResult global = net.run(scene);
    BackendOptions blocked;
    blocked.method = part::Method::Fractal;
    blocked.threshold = 128;
    const InferenceResult block = net.run(scene, blocked);
    EXPECT_LT(block.op_stats.distance_computations,
              global.op_stats.distance_computations / 2);
}

TEST(Network, AblationTogglesAreIndependent)
{
    const Network net(pointNet2Classification(), 42);
    const data::PointCloud obj = data::makeModelNetObject(2, 256, 6);

    BackendOptions bws_only;
    bws_only.method = part::Method::Fractal;
    bws_only.threshold = 64;
    bws_only.block_sampling = true;
    bws_only.block_grouping = false;
    bws_only.block_interpolation = false;
    const InferenceResult r1 = net.run(obj, bws_only);
    EXPECT_EQ(r1.embedding.cols(), net.outputDim());

    BackendOptions bwg_only = bws_only;
    bwg_only.block_sampling = false;
    bwg_only.block_grouping = true;
    const InferenceResult r2 = net.run(obj, bwg_only);
    EXPECT_EQ(r2.embedding.cols(), net.outputDim());
}

TEST(NetworkMetrics, StageHistogramsFollowANewRegistryAtAnOldAddress)
{
    // One workspace, two registries constructed one after the other
    // in the same storage. The stage-histogram pointers cached for the
    // first must not be reused for the second: they point into the
    // first registry's freed instruments.
    const Network net(pointNet2SemSeg(), 42);
    const data::PointCloud scene = data::makeS3disScene(512, 3);
    ASSERT_TRUE(core::metrics::samplingEnabled());
    core::Workspace ws;
    BackendOptions backend;
    InferenceResult out;
    alignas(core::metrics::Registry) unsigned char
        storage[sizeof(core::metrics::Registry)];
    for (int run = 0; run < 2; ++run) {
        auto *registry = new (storage) core::metrics::Registry();
        backend.metrics = registry;
        net.run(scene, backend, ws, out);
        EXPECT_EQ(registry->histogram("nn.stage_us{stage=mlp}").count(),
                  1u)
            << "registry " << run;
        registry->~Registry();
    }
}

TEST(MakeBlockSample, GroupsByLeaf)
{
    const data::PointCloud scene = data::makeS3disScene(1024, 7);
    const auto partitioner = part::makePartitioner(
        part::Method::Fractal);
    part::PartitionConfig config;
    config.threshold = 128;
    const part::PartitionResult part =
        partitioner->partition(scene, config);

    const std::vector<PointIdx> picks{0, 100, 200, 300, 400, 500};
    const ops::BlockSampleResult bs =
        makeBlockSample(part.tree, picks);
    ASSERT_EQ(bs.indices.size(), picks.size());
    ASSERT_EQ(bs.leaf_offsets.size(), part.tree.leaves().size() + 1);
    // Every sample lies inside its leaf's range.
    for (std::size_t li = 0; li < part.tree.leaves().size(); ++li) {
        const auto &leaf = part.tree.node(part.tree.leaves()[li]);
        for (std::uint32_t s = bs.leaf_offsets[li];
             s < bs.leaf_offsets[li + 1]; ++s) {
            EXPECT_GE(bs.positions[s], leaf.begin);
            EXPECT_LT(bs.positions[s], leaf.end);
        }
    }
}

TEST(MakeBlockSampleDeathTest, NeedsIdsInRange)
{
    const data::PointCloud scene = data::makeS3disScene(256, 7);
    const part::PartitionResult part =
        part::makePartitioner(part::Method::Fractal)->partition(scene, {});
    const std::vector<PointIdx> picks{0, 256};
    EXPECT_DEATH(makeBlockSample(part.tree, picks),
                 "sample id 256 out of range");
}

} // namespace
} // namespace fc::nn
