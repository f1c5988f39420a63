#include "ops/neighbor.h"

#include <algorithm>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "ops/gather.h"
#include "ops/topk.h"

namespace fc::ops {

namespace {

/**
 * The ball-query scan for one center over the contiguous positions
 * [begin, end) of @p pts, charged to @p stats. core::simd::ballScan
 * keeps the historical semantics — ascending scan, early stop at k
 * neighbors, stats counted per examined position only. @p row holds
 * the hits as positions on return.
 */
core::simd::BallScan
scanRow(const core::simd::SoaView &pts, const Vec3 &center_pt,
        std::uint32_t begin, std::uint32_t end, float radius2,
        std::size_t k, PointIdx *row, OpStats &stats)
{
    const core::simd::BallScan scan =
        core::simd::ballScan(pts, center_pt, radius2, begin, end, k, row);
    stats.points_visited += scan.examined;
    stats.distance_computations += scan.examined;
    ++stats.iterations;
    return scan;
}

/**
 * Maps the first @p found positions of @p row to point ids through
 * @p order (empty = identity) and pads the row to k entries.
 */
void
finishRow(std::span<const PointIdx> order, std::uint32_t found,
          std::size_t k, PointIdx *row)
{
    if (!order.empty())
        for (std::uint32_t j = 0; j < found; ++j)
            row[j] = order[row[j]];
    // PointNet++ padding: repeat the first neighbor; centers with no
    // neighbor at all (possible when the center is not among the
    // candidates) repeat kInvalidPoint.
    const PointIdx pad = found > 0 ? row[0] : kInvalidPoint;
    for (std::size_t j = found; j < k; ++j)
        row[j] = pad;
}

} // namespace

void
ballQuery(const data::PointCloud &cloud,
          const std::vector<PointIdx> &centers, float radius,
          std::size_t k, core::ThreadPool *pool, core::Workspace &ws,
          NeighborResult &out)
{
    fc_assert(k > 0, "ball query needs k > 0");
    out.stats = {};
    out.num_centers = centers.size();
    out.k = k;
    out.indices.resize(centers.size() * k);
    out.counts.resize(centers.size());

    const float r2 = radius * radius;
    // The row tasks below share the copy read-only.
    const core::simd::SoaView pts =
        core::simd::soaInto(cloud.coords(), ws.arena());
    // Center rows are disjoint k-wide slots; per-chunk stats fold in
    // chunk order. The candidate view is the identity (whole cloud).
    out.stats += core::parallelReduce(
        pool, 0, centers.size(),
        core::costGrain(std::max<std::size_t>(1, cloud.size()) * 6),
        OpStats{},
        [&](std::size_t cb, std::size_t ce) {
            OpStats stats;
            for (std::size_t ci = cb; ci < ce; ++ci) {
                fc_assert(centers[ci] < cloud.size(),
                          "center id %u out of range (cloud: %zu points)",
                          centers[ci], cloud.size());
                PointIdx *row = out.indices.data() + ci * k;
                const core::simd::BallScan scan = scanRow(
                    pts, cloud[centers[ci]], 0,
                    static_cast<std::uint32_t>(cloud.size()), r2, k,
                    row, stats);
                finishRow({}, scan.found, k, row);
                out.counts[ci] = scan.found;
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &ws.arena());
}

NeighborResult
ballQuery(const data::PointCloud &cloud,
          const std::vector<PointIdx> &centers, float radius,
          std::size_t k, core::ThreadPool *pool)
{
    core::Workspace ws;
    NeighborResult out;
    ballQuery(cloud, centers, radius, k, pool, ws, out);
    return out;
}

void
knnSearch(const data::PointCloud &cloud,
          const std::vector<PointIdx> &candidates,
          std::span<const Vec3> queries, std::size_t k,
          core::ThreadPool *pool, core::Workspace &ws,
          NeighborResult &out)
{
    fc_assert(k > 0, "knn needs k > 0");
    out.stats = {};
    out.num_centers = queries.size();
    out.k = k;
    out.indices.resize(queries.size() * k);
    out.counts.resize(queries.size());
    for (const PointIdx c : candidates)
        fc_assert(c < cloud.size(),
                  "candidate id %u out of range (cloud: %zu points)", c,
                  cloud.size());
    // Candidate ids are positions of the cloud-order copy; the row
    // tasks below share it read-only.
    const core::simd::SoaView pts =
        core::simd::soaInto(cloud.coords(), ws.arena());
    const auto n = static_cast<std::uint32_t>(candidates.size());
    // Query rows are disjoint k-wide slots; per-chunk stats fold in
    // chunk order.
    out.stats += core::parallelReduce(
        pool, 0, queries.size(),
        core::costGrain(std::max<std::size_t>(1, n) * 6), OpStats{},
        [&](std::size_t qb, std::size_t qe) {
            OpStats stats;
            for (std::size_t qi = qb; qi < qe; ++qi) {
                TopK top(k);
                top.offerPositions(pts, queries[qi], candidates.data(),
                                   candidates.data(), n);
                top.emitRow(out.indices.data() + qi * k);
                out.counts[qi] = static_cast<std::uint32_t>(top.count());
                stats.points_visited += n;
                stats.distance_computations += n;
                ++stats.iterations;
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &ws.arena());
}

NeighborResult
knnSearch(const data::PointCloud &cloud,
          const std::vector<PointIdx> &candidates,
          std::span<const Vec3> queries, std::size_t k,
          core::ThreadPool *pool)
{
    core::Workspace ws;
    NeighborResult out;
    knnSearch(cloud, candidates, queries, k, pool, ws, out);
    return out;
}

namespace {

/** Where blockGroup writes the gathered rows, if anywhere. */
struct GatherTarget
{
    /** Row-major [cloud size x feature_dim], read by point id. */
    std::span<const float> features;
    std::size_t feature_dim = 0;
    /** [num_centers x k x (3 + feature_dim)]. */
    float *values = nullptr;
};

/** One chunk's stats: the ball query's and the gather's. */
struct GroupStats
{
    OpStats group;
    OpStats gather;
};

/**
 * Writes the k gathered rows of one center from its scan hits, the
 * DFT positions hits[0, found): [dx, dy, dz | features] per hit, then
 * slot 0's row repeated into the padded slots, or zero rows when
 * nothing was found. That is what blockGatherNeighborhoods writes for
 * the padded id row, bit for bit: the same float differences of the
 * same floats. kFeatures false fixes the row at the 3 coordinate
 * channels, so the compiler sees the constant stride.
 */
template <bool kFeatures>
void
gatherHits(const core::simd::SoaView &pts,
           std::span<const PointIdx> order, const Vec3 &center_pt,
           const PointIdx *hits, std::uint32_t found, std::size_t k,
           const GatherTarget &target, float *dst)
{
    const std::size_t fdim = kFeatures ? target.feature_dim : 0;
    const std::size_t channels = 3 + fdim;
    if (found == 0) {
        std::fill(dst, dst + k * channels, 0.0f);
        return;
    }
    // Locals, so that the stores through dst need not reload them.
    const float cx = center_pt.x, cy = center_pt.y, cz = center_pt.z;
    const float *xs = pts.xs, *ys = pts.ys, *zs = pts.zs;
    for (std::uint32_t j = 0; j < found; ++j) {
        const std::uint32_t pos = hits[j];
        float *out = dst + j * channels;
        out[0] = xs[pos] - cx;
        out[1] = ys[pos] - cy;
        out[2] = zs[pos] - cz;
        if (kFeatures) {
            const float *feat = target.features.data() +
                                static_cast<std::size_t>(order[pos]) * fdim;
            std::copy(feat, feat + fdim, out + 3);
        }
    }
    for (std::size_t j = found; j < k; ++j)
        for (std::size_t c = 0; c < channels; ++c)
            dst[j * channels + c] = dst[c];
}

/**
 * The per-leaf loop of the block ball query, writing @p out's rows
 * and, with a @p gather target, each center's gathered rows between
 * the scan and the id map. Returns the ball query's stats and the
 * block-wise gather's (zero without a target).
 */
GroupStats
blockGroup(const data::PointCloud &cloud, const part::BlockTree &tree,
           const BlockSampleResult &centers, float radius,
           std::size_t k, const GatherTarget *gather,
           core::ThreadPool *pool, core::Workspace &ws,
           NeighborResult &out)
{
    fc_assert(k > 0, "ball query needs k > 0");
    out.num_centers = centers.indices.size();
    out.k = k;
    out.indices.resize(out.num_centers * k);
    out.counts.resize(out.num_centers);
    const float r2 = radius * radius;

    const auto &leaves = tree.leaves();
    fc_assert(centers.leaf_offsets.size() == leaves.size() + 1,
              "center table does not match tree (%zu offsets, %zu "
              "leaves)",
              centers.leaf_offsets.size(), leaves.size());
    fc_assert(centers.positions.size() == centers.indices.size(),
              "center table holds %zu positions for %zu centers",
              centers.positions.size(), centers.indices.size());
    // The rows scan the tree's copy of the coordinates, so the tree
    // must come from partitioning this cloud.
    fc_assert(tree.numPoints() == cloud.size() && tree.hasPoints(),
              "block op needs a tree partitioned from this cloud (tree: "
              "%u points, coordinates %s; cloud: %zu points)",
              tree.numPoints(), tree.hasPoints() ? "stored" : "missing",
              cloud.size());
    const core::simd::SoaView pts = tree.points();
    const std::span<const PointIdx> order = tree.order();
    const std::size_t channels =
        gather != nullptr ? 3 + gather->feature_dim : 0;
    // Block-wise gathering streams each search space once: fp16
    // features plus coordinates per point.
    const std::uint64_t bytes_per_point =
        gather != nullptr ? gather->feature_dim * 2 + 8 : 0;

    // Per-leaf work items. Every center owns one fixed k-wide row of
    // indices (and k gathered rows), so leaves write disjoint slots;
    // per-chunk stats fold in chunk order.
    return core::parallelReduce(
        pool, 0, leaves.size(), 1, GroupStats{},
        [&](std::size_t lb, std::size_t le) {
            GroupStats stats;
            for (std::size_t li = lb; li < le; ++li) {
                const part::BlockNode &space =
                    tree.node(tree.searchSpaceNode(leaves[li]));
                const std::uint32_t first = centers.leaf_offsets[li];
                const std::uint32_t last = centers.leaf_offsets[li + 1];
                if (first != last)
                    stats.gather.bytes_gathered +=
                        space.size() * bytes_per_point;
                for (std::uint32_t ci = first; ci < last; ++ci) {
                    const std::uint32_t pos = centers.positions[ci];
                    fc_assert(pos < order.size() &&
                                  order[pos] == centers.indices[ci],
                              "center %u: position %u does not hold its "
                              "point %u",
                              ci, pos, centers.indices[ci]);
                    const Vec3 center_pt(pts.xs[pos], pts.ys[pos],
                                         pts.zs[pos]);
                    const std::size_t slot = std::size_t{ci} * k;
                    PointIdx *row = out.indices.data() + slot;
                    const core::simd::BallScan scan =
                        scanRow(pts, center_pt, space.begin, space.end,
                                r2, k, row, stats.group);
                    if (gather != nullptr) {
                        float *dst = gather->values + slot * channels;
                        if (gather->feature_dim > 0)
                            gatherHits<true>(pts, order, center_pt, row,
                                             scan.found, k, *gather, dst);
                        else
                            gatherHits<false>(pts, order, center_pt, row,
                                              scan.found, k, *gather, dst);
                        stats.gather.points_visited += k;
                    }
                    finishRow(order, scan.found, k, row);
                    out.counts[ci] = scan.found;
                }
            }
            return stats;
        },
        [](GroupStats &acc, GroupStats &&chunk) {
            acc.group += chunk.group;
            acc.gather += chunk.gather;
        },
        &ws.arena());
}

} // namespace

void
blockBallQuery(const data::PointCloud &cloud, const part::BlockTree &tree,
               const BlockSampleResult &centers, float radius,
               std::size_t k, core::ThreadPool *pool,
               core::Workspace &ws, NeighborResult &out)
{
    out.stats =
        blockGroup(cloud, tree, centers, radius, k, nullptr, pool, ws, out)
            .group;
}

NeighborResult
blockBallQuery(const data::PointCloud &cloud, const part::BlockTree &tree,
               const BlockSampleResult &centers, float radius,
               std::size_t k, core::ThreadPool *pool)
{
    core::Workspace ws;
    NeighborResult out;
    blockBallQuery(cloud, tree, centers, radius, k, pool, ws, out);
    return out;
}

void
blockGroupGather(const data::PointCloud &cloud, const part::BlockTree &tree,
                 const BlockSampleResult &centers, float radius,
                 std::size_t k, std::span<const float> features,
                 std::size_t feature_dim, core::ThreadPool *pool,
                 core::Workspace &ws, NeighborResult &neighbors,
                 GatherResult &gathered)
{
    fc_assert(features.size() == cloud.size() * feature_dim,
              "features hold %zu floats, need %zu points x %zu",
              features.size(), cloud.size(), feature_dim);
    gathered.num_centers = centers.indices.size();
    gathered.k = k;
    gathered.channels = 3 + feature_dim;
    gathered.values.resize(gathered.num_centers * k * gathered.channels);
    const GatherTarget target{features, feature_dim,
                              gathered.values.data()};
    const GroupStats stats = blockGroup(cloud, tree, centers, radius, k,
                                        &target, pool, ws, neighbors);
    neighbors.stats = stats.group;
    gathered.stats = stats.gather;
}

} // namespace fc::ops
