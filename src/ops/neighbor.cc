#include "ops/neighbor.h"

#include <algorithm>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "ops/topk.h"

namespace fc::ops {

namespace {

/**
 * Ball query for one center over the contiguous positions
 * [begin, end) of @p pts, whose point ids @p order gives (empty =
 * identity). Writes exactly k entries (padded) into @p row; returns
 * the number of real neighbors found. core::simd::ballScan keeps the
 * historical semantics — ascending scan, early stop at k neighbors,
 * stats counted per examined position only.
 */
std::uint32_t
ballQueryRow(const core::simd::SoaView &pts, const Vec3 &center_pt,
             std::span<const PointIdx> order, std::uint32_t begin,
             std::uint32_t end, float radius2, std::size_t k,
             PointIdx *row, OpStats &stats)
{
    const core::simd::BallScan scan =
        core::simd::ballScan(pts, center_pt, radius2, begin, end, k, row);
    stats.points_visited += scan.examined;
    stats.distance_computations += scan.examined;
    if (!order.empty())
        for (std::uint32_t j = 0; j < scan.found; ++j)
            row[j] = order[row[j]];
    // PointNet++ padding: repeat the first neighbor; centers with no
    // neighbor at all (possible when the center is not among the
    // candidates) repeat kInvalidPoint.
    const PointIdx pad = scan.found > 0 ? row[0] : kInvalidPoint;
    for (std::size_t j = scan.found; j < k; ++j)
        row[j] = pad;
    return scan.found;
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
                out.counts[ci] = ballQueryRow(
                    pts, cloud[centers[ci]], {}, 0,
                    static_cast<std::uint32_t>(cloud.size()), r2, k,
                    out.indices.data() + ci * k, stats);
                ++stats.iterations;
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

void
blockBallQuery(const data::PointCloud &cloud, const part::BlockTree &tree,
               const BlockSampleResult &centers, float radius,
               std::size_t k, core::ThreadPool *pool,
               core::Workspace &ws, NeighborResult &out)
{
    fc_assert(k > 0, "ball query needs k > 0");
    out.stats = {};
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
    // The rows scan the tree's copy of the coordinates, so the tree
    // must come from partitioning this cloud.
    fc_assert(tree.numPoints() == cloud.size() && tree.hasPoints(),
              "block op needs a tree partitioned from this cloud (tree: "
              "%u points, coordinates %s; cloud: %zu points)",
              tree.numPoints(), tree.hasPoints() ? "stored" : "missing",
              cloud.size());
    const core::simd::SoaView pts = tree.points();

    // Per-leaf work items. Every center owns one fixed k-wide row of
    // indices, so leaves write disjoint slots; per-chunk stats fold
    // in chunk order.
    out.stats += core::parallelReduce(
        pool, 0, leaves.size(), 1, OpStats{},
        [&](std::size_t lb, std::size_t le) {
            OpStats stats;
            for (std::size_t li = lb; li < le; ++li) {
                const part::BlockNode &space =
                    tree.node(tree.searchSpaceNode(leaves[li]));
                for (std::uint32_t ci = centers.leaf_offsets[li];
                     ci < centers.leaf_offsets[li + 1]; ++ci) {
                    const Vec3 &center_pt =
                        cloud[centers.indices[ci]];
                    out.counts[ci] = ballQueryRow(
                        pts, center_pt, tree.order(), space.begin,
                        space.end, r2, k,
                        out.indices.data() +
                            static_cast<std::size_t>(ci) * k,
                        stats);
                    ++stats.iterations;
                }
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &ws.arena());
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

} // namespace fc::ops
