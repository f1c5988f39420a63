/**
 * @file
 * Network::run's output for every Table I model, pinned to digests
 * recorded before the block-interpolation rewrite. A refactor that
 * claims to leave every output bit-identical is checked here against
 * the code it replaced: any change to a feature bit, a work counter,
 * the MAC count or the SA MLP row count changes the digest.
 *
 * Each digest is FNV-1a 64 over the embedding, the point features,
 * every OpStats and PartitionStats field, total_macs and sa_mlp_rows,
 * for one model x aggregation order x backend. The backends cover
 * the three interpolation paths of the propagation stage: global
 * (None), block with block samples (Fractal) and block with global
 * FPS samples (Fractal, block_sampling off). The SIMD level is the
 * process's own, so CI's forced-scalar leg checks the same constants
 * at Scalar.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "dataset/s3dis.h"
#include "nn/models.h"
#include "nn/network.h"
#include "storage/fcpc_format.h"

namespace fc::nn {
namespace {

/** FNV-1a 64 folded over a sequence of values. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        hash_ = storage::fnv1a64(&value, sizeof value, hash_);
    }

    void
    add(const Tensor &t)
    {
        add(t.rows());
        add(t.cols());
        if (!t.data().empty())
            hash_ = storage::fnv1a64(t.data().data(),
                                     t.data().size() * sizeof(float),
                                     hash_);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t
digestOf(const InferenceResult &r)
{
    Digest d;
    d.add(r.embedding);
    d.add(r.point_features);
    d.add(r.op_stats.distance_computations);
    d.add(r.op_stats.points_visited);
    d.add(r.op_stats.iterations);
    d.add(r.op_stats.skipped);
    d.add(r.op_stats.bytes_gathered);
    d.add(r.partition_stats.elements_traversed);
    d.add(r.partition_stats.traversal_passes);
    d.add(r.partition_stats.num_sorts);
    d.add(r.partition_stats.sort_compares);
    d.add(r.partition_stats.degenerate_retries);
    d.add(r.partition_stats.num_splits);
    d.add(r.total_macs);
    d.add(r.sa_mlp_rows);
    return d.value();
}

constexpr const char *kBackendNames[] = {"none", "fractal",
                                         "fractal-global-fps"};

BackendOptions
backendFor(std::size_t b)
{
    BackendOptions backend;
    if (b > 0)
        backend.method = part::Method::Fractal;
    if (b == 2)
        backend.block_sampling = false;
    return backend;
}

/** [model in allModels() order][Eager, Delayed][backend]. */
constexpr std::uint64_t kRecorded[7][2][3] = {
    {{0x8f7fd10ef1d33254ull, 0x1f8e3418d0d3e198ull, 0xee81768c85424a30ull},
     {0x8dee37788d52fae8ull, 0x543da40c8ef7b79aull, 0x78c3a3676276c91dull}},
    {{0xcd8e4f8686ed3d14ull, 0xad10b0cd4a72c101ull, 0x365ccf3020e29fecull},
     {0x01c44fa47c3d2d3full, 0x04a727ff4df0c729ull, 0x653077f7e026a1b2ull}},
    {{0x313629534f7ad6c5ull, 0x306891cb1b24a382ull, 0x01a5b3ff2ff33f2bull},
     {0x93a16e431cd704a2ull, 0x333777d6d6837a50ull, 0xb460794cf1c8962bull}},
    {{0x8300fb3a8bf11682ull, 0x5ea6982d4d73bf36ull, 0x9ed4d0f8bf1bc25full},
     {0xd6ac42340b73f183ull, 0x6562e2583e9958d2ull, 0x2a79ac8a5afd116full}},
    {{0xefcb95c656197b3dull, 0x1903482fd56709feull, 0x7c83a9120cf03e9dull},
     {0x357e06b3f78245f8ull, 0xf708767cc6baa36full, 0xa3d6db8f302683d6ull}},
    {{0xfdadf8bae81759f4ull, 0x27a63dd71bea5f7bull, 0x3656ba6bce6d1559ull},
     {0x2c93dd9c77accbd1ull, 0x977a212b2debb74bull, 0xb23ffcdd1540f4e4ull}},
    {{0x6f2f0e9350936cf8ull, 0x0f20b2eee264ad5bull, 0xf6994f18eb69b9a0ull},
     {0x9e6e648b70f82e28ull, 0x2643711108106381ull, 0x146fba35fcc66988ull}},
};

TEST(NetworkDigest, TableIModelsMatchRecordedOutputs)
{
    const data::PointCloud scene = data::makeS3disScene(1536, 23);
    core::ThreadPool pool(2);
    const std::vector<ModelConfig> models = allModels();
    ASSERT_EQ(models.size(), 7u);
    for (std::size_t m = 0; m < models.size(); ++m) {
        const Network net(models[m]);
        for (std::size_t o = 0; o < 2; ++o) {
            for (std::size_t b = 0; b < 3; ++b) {
                BackendOptions backend = backendFor(b);
                backend.aggregation =
                    o == 0 ? Aggregation::Eager : Aggregation::Delayed;
                backend.pool = &pool;
                const std::uint64_t got = digestOf(net.run(scene, backend));
                char hex[32];
                std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
                EXPECT_EQ(got, kRecorded[m][o][b])
                    << models[m].name << (o == 0 ? " eager " : " delayed ")
                    << kBackendNames[b] << " digest " << hex;
            }
        }
    }
}

} // namespace
} // namespace fc::nn
