/**
 * @file
 * Binary block tree produced by all partitioning strategies.
 *
 * Nodes store half-open ranges [begin, end) into a depth-first-ordered
 * permutation of the input cloud: the DFT memory layout of the paper's
 * Fractal method (§IV-A). Leaf i occupies a contiguous range, leaves
 * are ordered left-to-right (spatially adjacent regions are adjacent in
 * memory), and the parent of a leaf is the search space used by
 * block-wise neighbor operations (§IV-B, Fig. 7).
 *
 * The layout holds the coordinates too: the tree keeps a copy of the
 * cloud's points permuted into DFT order, so every block's points sit
 * contiguously, as in the hardware's on-chip buffers, and the block
 * ops scan a search space with plain contiguous loads.
 */

#ifndef FC_PARTITION_BLOCK_TREE_H
#define FC_PARTITION_BLOCK_TREE_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/simd.h"

namespace fc::part {

/** Index of a node inside a BlockTree. */
using NodeIdx = std::int32_t;
inline constexpr NodeIdx kNoNode = -1;

/** One node of the partition tree. */
struct BlockNode
{
    /** Half-open range into the DFT point order. */
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    NodeIdx parent = kNoNode;
    NodeIdx left = kNoNode;
    NodeIdx right = kNoNode;

    /** Depth in the tree (root = 0). */
    std::uint16_t depth = 0;

    /** Split axis (0/1/2) or -1 for leaves. */
    std::int8_t splitDim = -1;

    /** Split value along splitDim (midpoint or median). */
    float splitValue = 0.0f;

    /** Bounding box of the points in this node. */
    Aabb bounds;

    std::uint32_t size() const { return end - begin; }
    bool isLeaf() const { return left == kNoNode; }
};

/**
 * The partition tree plus the DFT point permutation.
 *
 * order()[pos] maps a position in DFT layout back to the original
 * point index. All block ranges refer to DFT positions.
 */
class BlockTree
{
  public:
    BlockTree() = default;

    /**
     * Start a tree over @p num_points points (identity order) for
     * building by hand: it holds no coordinates (see hasPoints()).
     */
    explicit BlockTree(std::uint32_t num_points);

    /**
     * Rebuild in place over the points @p coords: nodes and leaves
     * are cleared, order() becomes 0..n-1 and points() the
     * coordinates transposed, in one sequential pass. Every buffer
     * keeps its capacity, so a warm re-partition of a same-shape
     * cloud performs zero heap allocations. Every partitioner starts
     * here and then rearranges order() and points() together.
     */
    void load(std::span<const Vec3> coords);

    /** Append a node; returns its index. */
    NodeIdx addNode(const BlockNode &node);

    const BlockNode &node(NodeIdx idx) const { return nodes_[idx]; }
    BlockNode &node(NodeIdx idx) { return nodes_[idx]; }

    std::size_t numNodes() const { return nodes_.size(); }
    std::uint32_t numPoints() const
    {
        return static_cast<std::uint32_t>(order_.size());
    }

    const std::vector<PointIdx> &order() const { return order_; }
    std::vector<PointIdx> &order() { return order_; }

    /**
     * The cloud's coordinates in DFT order: points().xs[pos] is the x
     * of point order()[pos]. Every partitioner loads them (load()) and
     * splits them in place with order(); a tree built by hand has
     * none (see hasPoints()).
     */
    core::simd::SoaView
    points() const
    {
        return {points_.xs.data(), points_.ys.data(), points_.zs.data()};
    }

    /** True when points() holds numPoints() coordinates. */
    bool
    hasPoints() const
    {
        return points_.xs.size() == order_.size();
    }

    /**
     * The partition's working arrays: order() and points(), writable,
     * position for position. The builders move them together.
     */
    core::simd::SplitArrays
    splitArrays()
    {
        return {order_.data(), points_.xs.data(), points_.ys.data(),
                points_.zs.data()};
    }

    /** Leaf node ids in depth-first (= memory) order. */
    const std::vector<NodeIdx> &leaves() const { return leaves_; }

    /** Recompute the leaf list by walking the tree depth-first. */
    void rebuildLeafList();

    /**
     * Search-space node for a leaf: its parent if depth >= 2, else the
     * leaf itself (paper Fig. 7(a): depth-1 leaves search themselves;
     * deeper leaves search their immediate parent).
     */
    NodeIdx searchSpaceNode(NodeIdx leaf) const;

    /** Maximum leaf depth. */
    std::uint16_t maxDepth() const;

    /** Largest leaf size in points. */
    std::uint32_t maxLeafSize() const;

    /** Smallest leaf size in points. */
    std::uint32_t minLeafSize() const;

    /** Coefficient of variation of leaf sizes (stddev / mean). */
    double leafSizeCv() const;

    /**
     * Validate structural invariants (ranges partition [0, n), parents
     * contain children, DFT order of leaves). Panics on violation.
     * Intended for tests.
     */
    void validate() const;

    /** Multi-line summary for debugging. */
    std::string summary() const;

  private:
    std::vector<BlockNode> nodes_;
    std::vector<PointIdx> order_;
    /** Owning per-axis coordinate arrays. */
    struct Points
    {
        std::vector<float> xs, ys, zs;
    };
    Points points_;
    std::vector<NodeIdx> leaves_;
};

} // namespace fc::part

#endif // FC_PARTITION_BLOCK_TREE_H
