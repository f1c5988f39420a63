/**
 * @file
 * Reproduces Fig. 14: network accuracy under each accelerator's point
 * operations — Original/PointAcc (exact global ops, lossless),
 * Crescent (KD blocks), PNNPU (uniform blocks), octree, and
 * FractalCloud — via the fixed-weight accuracy proxy (DESIGN.md §4.2).
 *
 * Three proxy metrics:
 *  - classification OA: nearest-centroid over network embeddings on
 *    the procedural ModelNet40-like task (40 classes);
 *  - segmentation label-transfer mIoU: one-hot labels of the sampled
 *    set interpolated back to every point through the backend's
 *    sampling + interpolation path (probes BWS/BWI information loss);
 *  - feature fidelity: cosine similarity of per-point segmentation
 *    features against the exact global-ops pipeline.
 *
 * Paper shape: PointAcc lossless; FractalCloud within ~0.7 points;
 * KD-tree close; uniform (PNNPU) clearly worst (-8.8% seg), octree in
 * between (-3%).
 */

#include "bench_common.h"

#include <cmath>

#include "dataset/modelnet.h"
#include "nn/classifier.h"
#include "nn/network.h"
#include "ops/interpolate.h"

namespace {

using namespace fc;

constexpr int kClasses = 40;
constexpr int kTrainPerClass = 2;
constexpr int kTestPerClass = 1;
constexpr std::size_t kObjPts = 256;
constexpr std::size_t kScenePts = 8192;
constexpr double kSampleRate = 0.25;

void
BM_ClassificationInference(benchmark::State &state)
{
    const nn::Network net(nn::pointNet2Classification(), 42);
    const data::PointCloud obj =
        data::makeModelNetObject(0, kObjPts, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.run(obj).total_macs);
}
BENCHMARK(BM_ClassificationInference)->Unit(benchmark::kMillisecond);

struct MethodSpec
{
    const char *name;
    nn::BackendOptions backend;
};

std::vector<MethodSpec>
methods(std::uint32_t threshold)
{
    nn::BackendOptions exact; // global ops
    nn::BackendOptions fractal;
    fractal.method = part::Method::Fractal;
    fractal.threshold = threshold;
    nn::BackendOptions kd = fractal;
    kd.method = part::Method::KdTree;
    nn::BackendOptions uniform = fractal;
    uniform.method = part::Method::Uniform;
    nn::BackendOptions octree = fractal;
    octree.method = part::Method::Octree;
    return {
        {"Original (PointAcc)", exact},
        {"Crescent (KD-tree)", kd},
        {"PNNPU (uniform)", uniform},
        {"Octree", octree},
        {"FractalCloud", fractal},
    };
}

/** Classification OA for one backend. */
double
classificationAccuracy(const nn::Network &net,
                       const nn::BackendOptions &backend)
{
    std::vector<float> train_feats;
    std::vector<int> train_labels;
    std::vector<float> test_feats;
    std::vector<int> test_labels;
    const std::size_t dim = net.outputDim();

    for (int c = 0; c < kClasses; ++c) {
        for (int i = 0; i < kTrainPerClass + kTestPerClass; ++i) {
            const std::uint64_t seed =
                1000 + static_cast<std::uint64_t>(c) * 31 +
                static_cast<std::uint64_t>(i);
            const data::PointCloud obj =
                data::makeModelNetObject(c, kObjPts, seed);
            const nn::InferenceResult r = net.run(obj, backend);
            auto &feats =
                i < kTrainPerClass ? train_feats : test_feats;
            auto &labels =
                i < kTrainPerClass ? train_labels : test_labels;
            for (std::size_t d = 0; d < dim; ++d)
                feats.push_back(r.embedding.at(0, d));
            labels.push_back(c);
        }
    }

    nn::NearestCentroid clf;
    clf.fit(train_feats, dim, train_labels, kClasses);
    std::vector<int> preds;
    for (std::size_t i = 0; i < test_labels.size(); ++i) {
        preds.push_back(clf.predict(
            {test_feats.data() + i * dim, dim}));
    }
    return nn::overallAccuracy(preds, test_labels);
}

/**
 * Segmentation label-transfer mIoU: sample 25% of the scene with the
 * backend's sampling path, then interpolate a one-hot label field of
 * the samples back to every point with the backend's interpolation
 * path. Measures how much per-point label information the combined
 * sampling + interpolation pipeline preserves.
 */
double
labelTransferMiou(const nn::BackendOptions &backend,
                  std::uint64_t seed)
{
    const data::PointCloud scene =
        data::makeS3disScene(kScenePts, seed);
    const std::size_t num_samples = static_cast<std::size_t>(
        kSampleRate * static_cast<double>(scene.size()));
    const int classes = data::kS3disNumClasses;

    std::vector<PointIdx> sampled;
    ops::InterpolateResult interp;

    if (backend.method == part::Method::None) {
        sampled =
            ops::farthestPointSample(scene, num_samples).indices;
        std::vector<float> onehot(sampled.size() * classes, 0.0f);
        for (std::size_t i = 0; i < sampled.size(); ++i)
            onehot[i * classes +
                   scene.labels()[sampled[i]]] = 1.0f;
        interp = ops::globalInterpolate(scene, onehot, classes,
                                        sampled);
    } else {
        const auto partitioner =
            part::makePartitioner(backend.method);
        part::PartitionConfig config;
        config.threshold = backend.threshold;
        const part::PartitionResult part =
            partitioner->partition(scene, config);
        ops::FpsOptions fps;
        fps.fixed_count_per_block =
            backend.method == part::Method::Uniform;
        const ops::BlockSampleResult bs =
            ops::blockFarthestPointSample(scene, part.tree,
                                          kSampleRate, fps);
        sampled = bs.indices;
        std::vector<float> onehot(sampled.size() * classes, 0.0f);
        for (std::size_t i = 0; i < sampled.size(); ++i)
            onehot[i * classes +
                   scene.labels()[sampled[i]]] = 1.0f;
        interp = ops::blockInterpolate(scene, part.tree, onehot,
                                       classes, sampled);
    }

    std::vector<int> preds(scene.size(), 0);
    for (std::size_t i = 0; i < scene.size(); ++i) {
        const float *row = interp.values.data() + i * classes;
        int best = 0;
        for (int c = 1; c < classes; ++c)
            if (row[c] > row[best])
                best = c;
        preds[i] = best;
    }
    std::vector<int> labels(scene.labels().begin(),
                            scene.labels().end());
    return nn::meanIoU(preds, labels, classes);
}

double
avgLabelTransfer(const nn::BackendOptions &backend)
{
    double sum = 0.0;
    for (const std::uint64_t seed : {11ull, 23ull, 37ull})
        sum += labelTransferMiou(backend, seed);
    return sum / 3.0;
}

/** Mean per-point cosine of segmentation features vs global ops. */
double
featureFidelity(const nn::Network &net,
                const nn::BackendOptions &backend,
                const nn::Tensor &reference,
                const data::PointCloud &scene)
{
    const nn::InferenceResult r = net.run(scene, backend);
    double total = 0.0;
    for (std::size_t i = 0; i < scene.size(); ++i) {
        double dot = 0.0, na = 0.0, nb = 0.0;
        for (std::size_t c = 0; c < reference.cols(); ++c) {
            const double a = reference.at(i, c);
            const double b = r.point_features.at(i, c);
            dot += a * b;
            na += a * a;
            nb += b * b;
        }
        total += dot / (std::sqrt(na * nb) + 1e-12);
    }
    return total / static_cast<double>(scene.size());
}

void
printTables()
{
    const nn::Network cls_net(nn::pointNet2Classification(), 42);
    const nn::Network seg_net(nn::pointNet2SemSeg(), 42);
    const data::PointCloud fid_scene = data::makeS3disScene(2048, 51);
    const nn::Tensor reference =
        seg_net.run(fid_scene).point_features;

    Table t({"method", "classification OA (proxy)", "OA delta",
             "label-transfer mIoU", "mIoU delta",
             "feature fidelity"});
    double base_oa = -1.0, base_miou = -1.0;
    for (const MethodSpec &m : methods(32)) {
        nn::BackendOptions seg_backend = m.backend;
        if (seg_backend.method != part::Method::None)
            seg_backend.threshold = 256;
        const double oa =
            classificationAccuracy(cls_net, m.backend);
        const double miou = avgLabelTransfer(seg_backend);
        nn::BackendOptions fid_backend = m.backend;
        if (fid_backend.method != part::Method::None)
            fid_backend.threshold = 128;
        const double fidelity =
            featureFidelity(seg_net, fid_backend, reference,
                            fid_scene);
        if (base_oa < 0.0) {
            base_oa = oa;
            base_miou = miou;
        }
        t.addRow({m.name, Table::num(100.0 * oa, 1) + "%",
                  Table::num(100.0 * (oa - base_oa), 1),
                  Table::num(100.0 * miou, 1) + "%",
                  Table::num(100.0 * (miou - base_miou), 1),
                  Table::num(100.0 * fidelity, 1) + "%"});
    }
    fcb::emit(t, "fig14_accuracy",
              "Fig. 14: accuracy proxy by point-operation backend "
              "(fixed weights, nearest-centroid heads)");
}

} // namespace

FC_BENCH_MAIN(printTables)
