/**
 * @file
 * Property-based sweeps: operator invariants must hold across every
 * partitioning method, threshold, and dataset family (TEST_P grids).
 */

#include <gtest/gtest.h>
#include <unordered_set>

#include "dataset/modelnet.h"
#include "dataset/s3dis.h"
#include "ops/fps.h"
#include "ops/interpolate.h"
#include "ops/neighbor.h"
#include "ops/quality.h"
#include "partition/partitioner.h"

namespace fc::ops {
namespace {

struct Sweep
{
    part::Method method;
    std::uint32_t threshold;
    int dataset; // 0 = modelnet object, 1 = s3dis scene
};

std::string
sweepName(const ::testing::TestParamInfo<Sweep> &info)
{
    return part::methodName(info.param.method) + "_th" +
           std::to_string(info.param.threshold) +
           (info.param.dataset == 0 ? "_object" : "_scene");
}

data::PointCloud
makeCloud(int dataset)
{
    if (dataset == 0)
        return data::makeModelNetObject(9, 1024, 77);
    return data::makeS3disScene(2048, 77);
}

class OpsSweep : public ::testing::TestWithParam<Sweep>
{
  protected:
    void
    SetUp() override
    {
        cloud_ = makeCloud(GetParam().dataset);
        const auto p = part::makePartitioner(GetParam().method);
        part::PartitionConfig config;
        config.threshold = GetParam().threshold;
        part_ = p->partition(cloud_, config);
    }

    data::PointCloud cloud_;
    part::PartitionResult part_;
};

TEST_P(OpsSweep, TreeInvariant)
{
    part_.tree.validate();
}

TEST_P(OpsSweep, BlockFpsProducesDistinctValidSamples)
{
    const BlockSampleResult r =
        blockFarthestPointSample(cloud_, part_.tree, 0.25);
    std::unordered_set<PointIdx> set;
    for (const PointIdx idx : r.indices) {
        EXPECT_LT(idx, cloud_.size());
        EXPECT_TRUE(set.insert(idx).second) << "duplicate sample";
    }
    // Fixed-rate sampling yields ~25% of points (within slack for
    // rounding at small leaves).
    EXPECT_GT(r.indices.size(), cloud_.size() / 8);
    EXPECT_LT(r.indices.size(), cloud_.size() * 3 / 4);
}

TEST_P(OpsSweep, BlockSamplingCoverageBounded)
{
    const BlockSampleResult block =
        blockFarthestPointSample(cloud_, part_.tree, 0.25);
    const SampleResult global =
        farthestPointSample(cloud_, block.indices.size());
    const float cov_block = coverageRadius(cloud_, block.indices);
    const float cov_global = coverageRadius(cloud_, global.indices);
    // Any partitioning keeps coverage within a moderate factor of
    // global FPS because every leaf contributes samples; the factor
    // differs by method (checked tighter for fractal elsewhere).
    EXPECT_LT(cov_block, cov_global * 4.0f + 1e-3f);
}

TEST_P(OpsSweep, BlockBallQueryRespectsRadius)
{
    const BlockSampleResult sampled =
        blockFarthestPointSample(cloud_, part_.tree, 0.25);
    const float radius = GetParam().dataset == 0 ? 0.3f : 0.5f;
    const NeighborResult r =
        blockBallQuery(cloud_, part_.tree, sampled, radius, 8);
    for (std::size_t c = 0; c < r.num_centers; ++c) {
        for (std::uint32_t j = 0; j < r.counts[c]; ++j) {
            EXPECT_LE(distance(cloud_[sampled.indices[c]],
                               cloud_[r.neighbor(c, j)]),
                      radius + 1e-5f);
        }
    }
}

TEST_P(OpsSweep, BlockKnnSelfNearest)
{
    // blockInterpolate's KNN, read at k = 1 with each sample's feature
    // set to its id: every sample's nearest sample is itself.
    const BlockSampleResult sampled =
        blockFarthestPointSample(cloud_, part_.tree, 0.25);
    const std::vector<float> ids(sampled.indices.begin(),
                                 sampled.indices.end());
    const InterpolateResult r = blockInterpolate(
        cloud_, part_.tree, ids, 1, sampled.indices, 1);
    for (const PointIdx s : sampled.indices)
        EXPECT_FLOAT_EQ(r.values[s], static_cast<float>(s));
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByThresholdsByData, OpsSweep,
    ::testing::Values(
        Sweep{part::Method::Fractal, 64, 0},
        Sweep{part::Method::Fractal, 64, 1},
        Sweep{part::Method::Fractal, 256, 1},
        Sweep{part::Method::KdTree, 64, 0},
        Sweep{part::Method::KdTree, 256, 1},
        Sweep{part::Method::Uniform, 64, 0},
        Sweep{part::Method::Uniform, 256, 1},
        Sweep{part::Method::Octree, 64, 0},
        Sweep{part::Method::Octree, 256, 1}),
    sweepName);

} // namespace
} // namespace fc::ops
