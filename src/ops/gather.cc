#include "ops/gather.h"

#include <algorithm>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/workspace.h"

namespace fc::ops {

namespace {

void
gatherRow(const data::PointCloud &cloud, PointIdx center_idx,
          const NeighborResult &neighbors, std::size_t row,
          std::size_t channels, std::vector<float> &values)
{
    const std::size_t k = neighbors.k;
    const std::size_t fdim = cloud.featureDim();
    const Vec3 &center_pt = cloud[center_idx];
    for (std::size_t j = 0; j < k; ++j) {
        const PointIdx nb = neighbors.neighbor(row, j);
        float *out = values.data() + (row * k + j) * channels;
        if (nb == kInvalidPoint) {
            for (std::size_t c = 0; c < channels; ++c)
                out[c] = 0.0f;
            continue;
        }
        const Vec3 &nb_pt = cloud[nb];
        out[0] = nb_pt.x - center_pt.x;
        out[1] = nb_pt.y - center_pt.y;
        out[2] = nb_pt.z - center_pt.z;
        if (fdim > 0) {
            const auto feat = cloud.featureRow(nb);
            for (std::size_t c = 0; c < fdim; ++c)
                out[3 + c] = feat[c];
        }
    }
}

} // namespace

void
gatherNeighborhoods(const data::PointCloud &cloud,
                    const std::vector<PointIdx> &centers,
                    const NeighborResult &neighbors, core::Workspace &,
                    GatherResult &out)
{
    fc_assert(centers.size() == neighbors.num_centers,
              "centers (%zu) and neighbor rows (%zu) disagree",
              centers.size(), neighbors.num_centers);
    out.stats = {};
    out.num_centers = neighbors.num_centers;
    out.k = neighbors.k;
    out.channels = 3 + cloud.featureDim();
    out.values.resize(out.num_centers * out.k * out.channels);

    const std::size_t bytes_per_row =
        out.k * (cloud.featureDim() * 2 + 8); // fp16 features + coords
    for (std::size_t row = 0; row < out.num_centers; ++row) {
        // The ids come from the caller, not from a block op over this
        // cloud: check each before gatherRow reads by it.
        fc_assert(centers[row] < cloud.size(),
                  "center id %u out of range (cloud: %zu points)",
                  centers[row], cloud.size());
        for (std::size_t j = 0; j < out.k; ++j) {
            const PointIdx nb = neighbors.neighbor(row, j);
            fc_assert(nb == kInvalidPoint || nb < cloud.size(),
                      "neighbor id %u out of range (cloud: %zu points)",
                      nb, cloud.size());
        }
        gatherRow(cloud, centers[row], neighbors, row, out.channels,
                  out.values);
        // Global gather: every neighbor row is a random access into
        // the full feature space.
        out.stats.points_visited += out.k;
        out.stats.bytes_gathered += bytes_per_row;
    }
}

GatherResult
gatherNeighborhoods(const data::PointCloud &cloud,
                    const std::vector<PointIdx> &centers,
                    const NeighborResult &neighbors)
{
    core::Workspace ws;
    GatherResult out;
    gatherNeighborhoods(cloud, centers, neighbors, ws, out);
    return out;
}

void
blockGatherNeighborhoods(
    const data::PointCloud &cloud, const part::BlockTree &tree,
    const std::vector<PointIdx> &centers,
    const std::vector<std::uint32_t> &center_leaf_offsets,
    const NeighborResult &neighbors, core::ThreadPool *pool,
    core::Workspace &ws, GatherResult &out)
{
    fc_assert(centers.size() == neighbors.num_centers,
              "centers (%zu) and neighbor rows (%zu) disagree",
              centers.size(), neighbors.num_centers);
    const auto &leaves = tree.leaves();
    fc_assert(center_leaf_offsets.size() == leaves.size() + 1,
              "leaf offsets do not match tree");

    out.stats = {};
    out.num_centers = neighbors.num_centers;
    out.k = neighbors.k;
    out.channels = 3 + cloud.featureDim();
    out.values.resize(out.num_centers * out.k * out.channels);

    // Values are identical to the global gather; what changes is the
    // access pattern: per leaf, the search-space blocks are streamed
    // once into SRAM and every center of the leaf reads from there.
    // Per-leaf work items write disjoint value rows; per-chunk stats
    // fold in chunk order.
    out.stats += core::parallelReduce(
        pool, 0, leaves.size(), 1, OpStats{},
        [&](std::size_t lb, std::size_t le) {
            OpStats stats;
            for (std::size_t li = lb; li < le; ++li) {
                const part::BlockNode &space =
                    tree.node(tree.searchSpaceNode(leaves[li]));
                const std::uint32_t first = center_leaf_offsets[li];
                const std::uint32_t last =
                    center_leaf_offsets[li + 1];
                if (first == last)
                    continue;
                // One streamed fetch of the search space per leaf
                // (parent data shared across siblings is accounted by
                // the hardware model; here we charge the leaf-local
                // stream).
                stats.bytes_gathered +=
                    static_cast<std::uint64_t>(space.size()) *
                    (cloud.featureDim() * 2 + 8);
                for (std::uint32_t row = first; row < last; ++row) {
                    gatherRow(cloud, centers[row], neighbors, row,
                              out.channels, out.values);
                    stats.points_visited += out.k;
                }
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &ws.arena());
}

GatherResult
blockGatherNeighborhoods(
    const data::PointCloud &cloud, const part::BlockTree &tree,
    const std::vector<PointIdx> &centers,
    const std::vector<std::uint32_t> &center_leaf_offsets,
    const NeighborResult &neighbors, core::ThreadPool *pool)
{
    core::Workspace ws;
    GatherResult out;
    blockGatherNeighborhoods(cloud, tree, centers, center_leaf_offsets,
                             neighbors, pool, ws, out);
    return out;
}

namespace {

/**
 * Fold the k neighbor feature rows of center @p row into @p dst in
 * slot order: slot 0 is copied, each later slot max-reduced, and a
 * kInvalidPoint slot reads as a zero row.
 */
void
gatherMaxPoolRow(std::span<const float> features, std::size_t channels,
                 const NeighborResult &neighbors, std::size_t row,
                 float *dst)
{
    for (std::size_t j = 0; j < neighbors.k; ++j) {
        const PointIdx nb = neighbors.neighbor(row, j);
        if (nb == kInvalidPoint) {
            for (std::size_t c = 0; c < channels; ++c)
                dst[c] = j == 0 ? 0.0f : std::max(dst[c], 0.0f);
            continue;
        }
        const float *src = features.data() +
                           static_cast<std::size_t>(nb) * channels;
        if (j == 0) {
            std::copy(src, src + channels, dst);
            continue;
        }
        for (std::size_t c = 0; c < channels; ++c)
            dst[c] = std::max(dst[c], src[c]);
    }
}

} // namespace

OpStats
gatherMaxPool(std::span<const float> features, std::size_t channels,
              const NeighborResult &neighbors, core::ThreadPool *pool,
              std::span<float> out)
{
    fc_assert(out.size() == neighbors.num_centers * channels,
              "pooled output holds %zu floats, need %zu x %zu",
              out.size(), neighbors.num_centers, channels);
    // The ids come from the caller, not from a block op over these
    // rows: check each before gatherMaxPoolRow reads by it.
    const std::size_t rows = channels > 0 ? features.size() / channels : 0;
    for (std::size_t row = 0; row < neighbors.num_centers; ++row)
        for (std::size_t j = 0; j < neighbors.k; ++j) {
            const PointIdx nb = neighbors.neighbor(row, j);
            fc_assert(nb == kInvalidPoint || nb < rows,
                      "neighbor id %u out of range (features: %zu rows)",
                      nb, rows);
        }
    core::parallelFor(
        pool, 0, neighbors.num_centers,
        core::costGrain(neighbors.k * channels),
        [&](std::size_t rb, std::size_t re) {
            for (std::size_t row = rb; row < re; ++row)
                gatherMaxPoolRow(features, channels, neighbors, row,
                                 out.data() + row * channels);
        });

    // One random fp16 feature-row read per (center, neighbor) pair.
    const std::uint64_t pairs =
        static_cast<std::uint64_t>(neighbors.num_centers) * neighbors.k;
    OpStats stats;
    stats.points_visited = pairs;
    stats.bytes_gathered = pairs * channels * 2;
    return stats;
}

OpStats
blockGatherMaxPool(std::span<const float> features, std::size_t channels,
                   const part::BlockTree &tree,
                   const std::vector<std::uint32_t> &center_leaf_offsets,
                   const NeighborResult &neighbors,
                   core::ThreadPool *pool, std::span<float> out)
{
    const auto &leaves = tree.leaves();
    fc_assert(center_leaf_offsets.size() == leaves.size() + 1,
              "leaf offsets do not match tree");
    fc_assert(out.size() == neighbors.num_centers * channels,
              "pooled output holds %zu floats, need %zu x %zu",
              out.size(), neighbors.num_centers, channels);

    // Same values as the global form; the accounting streams each
    // leaf's search-space slice of the feature tensor once (the DFT
    // layout makes it contiguous) instead of charging random access.
    // The stats follow from the leaf table alone, so they are summed
    // in one serial pass and the leaves run as a plain parallelFor.
    OpStats stats;
    for (std::size_t li = 0; li < leaves.size(); ++li) {
        const std::uint32_t first = center_leaf_offsets[li];
        const std::uint32_t last = center_leaf_offsets[li + 1];
        if (first == last)
            continue;
        const part::BlockNode &space =
            tree.node(tree.searchSpaceNode(leaves[li]));
        stats.bytes_gathered +=
            static_cast<std::uint64_t>(space.size()) * channels * 2;
        stats.points_visited +=
            static_cast<std::uint64_t>(last - first) * neighbors.k;
    }
    // A chunk of leaves owns the center rows between its offsets.
    core::parallelFor(
        pool, 0, leaves.size(), 1, [&](std::size_t lb, std::size_t le) {
            for (std::uint32_t row = center_leaf_offsets[lb];
                 row < center_leaf_offsets[le]; ++row)
                gatherMaxPoolRow(features, channels, neighbors, row,
                                 out.data() + row * channels);
        });
    return stats;
}

void
maxPoolRelativeCoords(const data::PointCloud &cloud,
                      const std::vector<PointIdx> &centers,
                      const NeighborResult &neighbors,
                      core::ThreadPool *pool, std::vector<float> &out)
{
    fc_assert(centers.size() == neighbors.num_centers,
              "centers (%zu) and neighbor rows (%zu) disagree",
              centers.size(), neighbors.num_centers);
    out.resize(centers.size() * 3);
    core::parallelFor(
        pool, 0, centers.size(), core::costGrain(neighbors.k),
        [&](std::size_t rb, std::size_t re) {
            for (std::size_t row = rb; row < re; ++row) {
                fc_assert(centers[row] < cloud.size(),
                          "center id %u out of range (cloud: %zu points)",
                          centers[row], cloud.size());
                const Vec3 &center_pt = cloud[centers[row]];
                float *dst = out.data() + row * 3;
                dst[0] = dst[1] = dst[2] = 0.0f;
                const std::uint32_t count = neighbors.counts[row];
                for (std::uint32_t j = 0; j < count; ++j) {
                    const PointIdx nb = neighbors.neighbor(row, j);
                    fc_assert(nb < cloud.size(),
                              "neighbor id %u out of range (cloud: %zu "
                              "points)",
                              nb, cloud.size());
                    const Vec3 &nb_pt = cloud[nb];
                    const float d[3] = {nb_pt.x - center_pt.x,
                                        nb_pt.y - center_pt.y,
                                        nb_pt.z - center_pt.z};
                    if (j == 0) {
                        dst[0] = d[0];
                        dst[1] = d[1];
                        dst[2] = d[2];
                    } else {
                        dst[0] = std::max(dst[0], d[0]);
                        dst[1] = std::max(dst[1], d[1]);
                        dst[2] = std::max(dst[2], d[2]);
                    }
                }
            }
        });
}

} // namespace fc::ops
