#include "ops/interpolate.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "ops/topk.h"

namespace fc::ops {

namespace {

/** Rows per parallel chunk of interpolateFeatures' blend loop. */
constexpr std::size_t kBlendGrain = 1024;

/** Marks a cloud id that is not a known point. */
constexpr std::uint32_t kNotKnown = std::numeric_limits<std::uint32_t>::max();

/**
 * Inverse-distance-weighted blend of one output row from its k
 * neighbor slots, each (squared distance, row of @p known_features).
 * Slots from @p found on repeat slot 0, as NeighborResult rows are
 * padded, and a +inf distance weighs exactly 0. @p out must be zero;
 * a row whose weights sum to 0 stays zero and adds nothing to
 * @p stats.
 */
void
blendRow(const std::pair<float, PointIdx> *slots, std::size_t found,
         std::size_t k, const float *known_features, std::size_t channels,
         float *out, OpStats &stats)
{
    if (found == 0)
        return; // leave zeros
    constexpr float kEps = 1e-8f;
    float weights[TopK::kInline];
    float weight_sum = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
        weights[j] = 1.0f / (slots[j < found ? j : 0].first + kEps);
        weight_sum += weights[j];
    }
    if (weight_sum <= 0.0f)
        return; // leave zeros
    const float inv = 1.0f / weight_sum;
    for (std::size_t j = 0; j < k; ++j) {
        if (weights[j] <= 0.0f)
            continue;
        const std::size_t row = slots[j < found ? j : 0].second;
        // Elementwise mul+add — bit-identical at every dispatch
        // level (core/simd.h).
        core::simd::axpy(weights[j] * inv, known_features + row * channels,
                         out, channels);
        stats.bytes_gathered += channels * 2; // fp16 row
    }
    ++stats.iterations;
}

/** Hint that the @p n floats at @p p are about to be written. */
void
prefetchForWrite(const float *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 16) // 16 floats per 64-byte line
        __builtin_prefetch(p + i, 1);
}

} // namespace

void
interpolateFeatures(const data::PointCloud &cloud,
                    const std::vector<float> &known_features,
                    std::size_t channels,
                    const std::vector<PointIdx> &known_indices,
                    const NeighborResult &neighbors,
                    core::ThreadPool *pool, core::Workspace &ws,
                    InterpolateResult &out)
{
    fc_assert(known_features.size() == known_indices.size() * channels,
              "known feature matrix shape mismatch");
    fc_assert(neighbors.num_centers == cloud.size(),
              "neighbor table rows (%zu) != cloud size (%zu)",
              neighbors.num_centers, cloud.size());
    fc_assert(neighbors.k <= TopK::kInline,
              "interpolation k (%zu) above %zu", neighbors.k,
              TopK::kInline);

    out.stats = {};
    out.num_points = cloud.size();
    out.channels = channels;
    out.values.assign(out.num_points * channels, 0.0f);
    out.stats += neighbors.stats;

    // Dense cloud-index -> known-row table (arena scratch).
    std::span<std::uint32_t> row_of =
        ws.arena().allocSpan<std::uint32_t>(cloud.size(), kNotKnown);
    for (std::size_t i = 0; i < known_indices.size(); ++i) {
        fc_assert(known_indices[i] < cloud.size(),
                  "known point id %u out of range (cloud: %zu points)",
                  known_indices[i], cloud.size());
        row_of[known_indices[i]] = static_cast<std::uint32_t>(i);
    }

    // Row chunks write disjoint value rows; per-chunk stats fold in
    // chunk order.
    out.stats += core::parallelReduce(
        pool, 0, neighbors.num_centers, kBlendGrain, OpStats{},
        [&](std::size_t cb, std::size_t ce) {
            OpStats stats;
            std::pair<float, PointIdx> slots[TopK::kInline];
            for (std::size_t row = cb; row < ce; ++row) {
                const Vec3 &query = cloud[static_cast<PointIdx>(row)];
                for (std::size_t j = 0; j < neighbors.k; ++j) {
                    const PointIdx nb = neighbors.neighbor(row, j);
                    if (nb == kInvalidPoint) {
                        // An empty slot weighs exactly 0.
                        slots[j] = {std::numeric_limits<float>::infinity(),
                                    0};
                        continue;
                    }
                    fc_assert(nb < cloud.size() && row_of[nb] != kNotKnown,
                              "neighbor %u is not a known point", nb);
                    slots[j] = {distance2(query, cloud[nb]), row_of[nb]};
                }
                blendRow(slots, neighbors.k, neighbors.k,
                         known_features.data(), channels,
                         out.values.data() + row * channels, stats);
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &ws.arena());
}

InterpolateResult
interpolateFeatures(const data::PointCloud &cloud,
                    const std::vector<float> &known_features,
                    std::size_t channels,
                    const std::vector<PointIdx> &known_indices,
                    const NeighborResult &neighbors,
                    core::ThreadPool *pool)
{
    core::Workspace ws;
    InterpolateResult out;
    interpolateFeatures(cloud, known_features, channels, known_indices,
                        neighbors, pool, ws, out);
    return out;
}

void
globalInterpolate(const data::PointCloud &cloud,
                  const std::vector<float> &known_features,
                  std::size_t channels,
                  const std::vector<PointIdx> &known_indices,
                  std::size_t k, core::ThreadPool *pool,
                  core::Workspace &ws, InterpolateResult &out)
{
    NeighborResult &neighbors =
        ws.slot<NeighborResult>("ops.gi.nbr");
    knnSearch(cloud, known_indices, cloud.coords(), k, pool, ws,
              neighbors);
    interpolateFeatures(cloud, known_features, channels, known_indices,
                        neighbors, pool, ws, out);
}

InterpolateResult
globalInterpolate(const data::PointCloud &cloud,
                  const std::vector<float> &known_features,
                  std::size_t channels,
                  const std::vector<PointIdx> &known_indices,
                  std::size_t k, core::ThreadPool *pool)
{
    core::Workspace ws;
    InterpolateResult out;
    globalInterpolate(cloud, known_features, channels, known_indices, k,
                      pool, ws, out);
    return out;
}

void
blockInterpolate(const data::PointCloud &cloud,
                 const part::BlockTree &tree,
                 const std::vector<float> &known_features,
                 std::size_t channels,
                 const std::vector<PointIdx> &known_indices,
                 std::size_t k, core::ThreadPool *pool,
                 core::Workspace &ws, InterpolateResult &out)
{
    fc_assert(k > 0 && k <= TopK::kInline,
              "interpolation k (%zu) outside [1, %zu]", k, TopK::kInline);
    fc_assert(known_features.size() == known_indices.size() * channels,
              "known feature matrix shape mismatch");
    // Queries and candidates read the tree's copy of the coordinates,
    // and each query writes the row of its point id, so the tree must
    // come from partitioning this cloud.
    fc_assert(tree.numPoints() == cloud.size() && tree.hasPoints(),
              "block op needs a tree partitioned from this cloud (tree: "
              "%u points, coordinates %s; cloud: %zu points)",
              tree.numPoints(), tree.hasPoints() ? "stored" : "missing",
              cloud.size());
    out.stats = {};
    out.num_points = cloud.size();
    out.channels = channels;
    out.values.assign(out.num_points * channels, 0.0f);

    // The known points in ascending DFT position (arena scratch,
    // shared read-only by the leaf tasks): mark each id with its
    // feature row, then one scan of the order lists them, so every
    // search space's known points are one slice of the list.
    core::Arena &arena = ws.arena();
    std::span<std::uint32_t> row_of =
        arena.allocSpan<std::uint32_t>(cloud.size(), kNotKnown);
    for (std::size_t i = 0; i < known_indices.size(); ++i) {
        const PointIdx id = known_indices[i];
        fc_assert(id < cloud.size(),
                  "known point id %u out of range (cloud: %zu points)",
                  id, cloud.size());
        fc_assert(row_of[id] == kNotKnown,
                  "known point id %u repeated (rows %u and %zu)", id,
                  row_of[id], i);
        row_of[id] = static_cast<std::uint32_t>(i);
    }
    const std::size_t num_known = known_indices.size();
    std::span<std::uint32_t> known_pos =
        arena.allocSpan<std::uint32_t>(num_known);
    std::span<std::uint32_t> known_row =
        arena.allocSpan<std::uint32_t>(num_known);
    std::size_t listed = 0;
    for (std::uint32_t pos = 0; pos < tree.numPoints(); ++pos) {
        const std::uint32_t row = row_of[tree.order()[pos]];
        if (row != kNotKnown) {
            known_pos[listed] = pos;
            known_row[listed] = row;
            ++listed;
        }
    }
    const core::simd::SoaView pts = tree.points();

    // Per-leaf work items; every query writes the row of its point id.
    // Each query's top-k keeps feature rows, ordered by distance and
    // then offer order (ascending position), and its distances weigh
    // the blend directly.
    const auto &leaves = tree.leaves();
    out.stats += core::parallelReduce(
        pool, 0, leaves.size(), 1, OpStats{},
        [&](std::size_t lb, std::size_t le) {
            OpStats stats;
            for (std::size_t li = lb; li < le; ++li) {
                const part::NodeIdx leaf_idx = leaves[li];
                const part::BlockNode &leaf = tree.node(leaf_idx);
                const part::BlockNode &space =
                    tree.node(tree.searchSpaceNode(leaf_idx));
                const auto lo = std::lower_bound(
                    known_pos.begin(), known_pos.end(), space.begin);
                const auto hi =
                    std::lower_bound(lo, known_pos.end(), space.end);
                std::uint32_t first =
                    static_cast<std::uint32_t>(lo - known_pos.begin());
                std::uint32_t count = static_cast<std::uint32_t>(hi - lo);
                if (count == 0) {
                    // No known point in the search space: fall back
                    // to all of them.
                    first = 0;
                    count = static_cast<std::uint32_t>(num_known);
                }
                for (std::uint32_t pos = leaf.begin; pos < leaf.end;
                     ++pos) {
                    // Queries go in DFT order, so their output rows
                    // are scattered: fetch the next one while this
                    // query's top-k runs, or each blend waits on a
                    // cache miss.
                    if (pos + 1 < leaf.end)
                        prefetchForWrite(
                            out.values.data() +
                                std::size_t{tree.order()[pos + 1]} *
                                    channels,
                            channels);
                    TopK top(k);
                    top.offerPositions(
                        pts, Vec3(pts.xs[pos], pts.ys[pos], pts.zs[pos]),
                        known_pos.data() + first,
                        known_row.data() + first, count);
                    stats.points_visited += count;
                    stats.distance_computations += count;
                    ++stats.iterations;
                    blendRow(top.data(), top.count(), k,
                             known_features.data(), channels,
                             out.values.data() +
                                 std::size_t{tree.order()[pos]} * channels,
                             stats);
                }
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; }, &arena);
}

InterpolateResult
blockInterpolate(const data::PointCloud &cloud,
                 const part::BlockTree &tree,
                 const std::vector<float> &known_features,
                 std::size_t channels,
                 const std::vector<PointIdx> &known_indices,
                 std::size_t k, core::ThreadPool *pool)
{
    core::Workspace ws;
    InterpolateResult out;
    blockInterpolate(cloud, tree, known_features, channels,
                     known_indices, k, pool, ws, out);
    return out;
}

} // namespace fc::ops
