#include "ops/neighbor.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"
#include "ops/topk.h"

namespace fc::ops {

namespace {

/**
 * KNN distance-screen tile width: small enough for the stack (512 B),
 * big enough that core::simd::distance2Range runs full-width. Using a
 * fixed stack tile (not arena scratch) keeps the per-row kernels
 * allocation-free and reentrant inside pool tasks.
 */
constexpr std::uint32_t kScreenTile = 128;

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

/**
 * KNN for one query over an explicit candidate list: candidate j sits
 * at position @p positions[j] of @p pts and has point id @p ids[j].
 * Writes exactly k entries (padded) into @p row; returns the real
 * neighbor count. Distances come from core::simd::distance2Range
 * tiles feeding the inline top-k (ops/topk.h) — no per-row heap use.
 */
std::uint32_t
knnRow(const core::simd::SoaView &pts, const Vec3 &query,
       std::span<const std::uint32_t> positions,
       std::span<const PointIdx> ids, std::size_t k, PointIdx *row,
       OpStats &stats)
{
    TopK top(k);
    float dist_tile[kScreenTile];
    const std::uint32_t n = static_cast<std::uint32_t>(ids.size());
    for (std::uint32_t tb = 0; tb < n; tb += kScreenTile) {
        const std::uint32_t te = std::min(n, tb + kScreenTile);
        core::simd::distance2Range(pts, positions.data(), 0, query, tb,
                                   te, dist_tile);
        top.offerBatch(dist_tile, ids.data() + tb, te - tb);
    }
    stats.points_visited += n;
    stats.distance_computations += n;
    top.emitRow(row);
    return static_cast<std::uint32_t>(top.count());
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
          core::Workspace &ws, NeighborResult &out)
{
    fc_assert(k > 0, "knn needs k > 0");
    out.stats = {};
    out.num_centers = queries.size();
    out.k = k;
    out.indices.resize(queries.size() * k);
    out.counts.resize(queries.size());
    // Candidate ids are positions of the cloud-order copy.
    const core::simd::SoaView pts =
        core::simd::soaInto(cloud.coords(), ws.arena());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        out.counts[qi] =
            knnRow(pts, queries[qi], candidates, candidates, k,
                   out.indices.data() + qi * k, out.stats);
        ++out.stats.iterations;
    }
}

NeighborResult
knnSearch(const data::PointCloud &cloud,
          const std::vector<PointIdx> &candidates,
          std::span<const Vec3> queries, std::size_t k)
{
    core::Workspace ws;
    NeighborResult out;
    knnSearch(cloud, candidates, queries, k, ws, out);
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

void
blockKnnToSamples(const data::PointCloud &cloud,
                  const part::BlockTree &tree,
                  const BlockSampleResult &sampled, std::size_t k,
                  core::ThreadPool *pool, core::Workspace &ws,
                  NeighborResult &out)
{
    fc_assert(k > 0, "knn needs k > 0");
    // The rows read the tree's copy of the coordinates and write one
    // row per point of the cloud, so the tree must come from
    // partitioning this cloud.
    fc_assert(tree.numPoints() == cloud.size() && tree.hasPoints(),
              "block op needs a tree partitioned from this cloud (tree: "
              "%u points, coordinates %s; cloud: %zu points)",
              tree.numPoints(), tree.hasPoints() ? "stored" : "missing",
              cloud.size());
    out.stats = {};
    out.num_centers = cloud.size();
    out.k = k;
    out.indices.resize(cloud.size() * k);
    out.counts.resize(cloud.size());

    // Sorted copy of sampled DFT positions for range extraction, and
    // their point ids (arena scratch, shared read-only during the
    // parallel phase). The rows screen the tree's points() at these
    // positions and offer the ids to the top-k in the same order.
    core::Arena &arena = ws.arena();
    std::span<std::uint32_t> sorted_pos =
        arena.allocSpan<std::uint32_t>(sampled.positions.size());
    std::copy(sampled.positions.begin(), sampled.positions.end(),
              sorted_pos.begin());
    std::sort(sorted_pos.begin(), sorted_pos.end());
    std::span<PointIdx> sorted_idx =
        arena.allocSpan<PointIdx>(sorted_pos.size());
    for (std::size_t i = 0; i < sorted_pos.size(); ++i)
        sorted_idx[i] = tree.order()[sorted_pos[i]];
    const core::simd::SoaView pts = tree.points();

    // Per-leaf work items; every query writes the row of its original
    // point id, so rows come out in original order directly. Each
    // leaf's candidates are a contiguous subrange of sorted_pos and
    // sorted_idx — spans, not copies — so the per-chunk loop never
    // allocates.
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

                // Sampled points whose DFT position falls inside the
                // search space range.
                const auto lo =
                    std::lower_bound(sorted_pos.begin(),
                                     sorted_pos.end(), space.begin);
                const auto hi =
                    std::lower_bound(sorted_pos.begin(),
                                     sorted_pos.end(), space.end);
                const std::size_t first =
                    static_cast<std::size_t>(lo - sorted_pos.begin());
                const std::size_t count =
                    static_cast<std::size_t>(hi - lo);
                std::span<const std::uint32_t> positions =
                    sorted_pos.subspan(first, count);
                std::span<const PointIdx> ids =
                    sorted_idx.subspan(first, count);
                if (ids.empty()) {
                    // No sample in the search space (samples of
                    // another tree): fall back to all samples.
                    positions = sorted_pos;
                    ids = sorted_idx;
                }

                for (std::uint32_t pos = leaf.begin; pos < leaf.end;
                     ++pos) {
                    const PointIdx query_idx = tree.order()[pos];
                    const Vec3 query(pts.xs[pos], pts.ys[pos],
                                     pts.zs[pos]);
                    out.counts[query_idx] = knnRow(
                        pts, query, positions, ids, k,
                        out.indices.data() +
                            static_cast<std::size_t>(query_idx) * k,
                        stats);
                    ++stats.iterations;
                }
            }
            return stats;
        },
        [](OpStats &acc, OpStats &&chunk) { acc += chunk; },
        &arena);
}

NeighborResult
blockKnnToSamples(const data::PointCloud &cloud,
                  const part::BlockTree &tree,
                  const BlockSampleResult &sampled, std::size_t k,
                  core::ThreadPool *pool)
{
    core::Workspace ws;
    NeighborResult out;
    blockKnnToSamples(cloud, tree, sampled, k, pool, ws, out);
    return out;
}

} // namespace fc::ops
