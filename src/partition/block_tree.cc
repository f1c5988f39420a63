#include "partition/block_tree.h"

#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace fc::part {

BlockTree::BlockTree(std::uint32_t num_points) : order_(num_points)
{
    std::iota(order_.begin(), order_.end(), 0u);
}

void
BlockTree::load(std::span<const Vec3> coords)
{
    const std::size_t n = coords.size();
    nodes_.clear();
    leaves_.clear();
    order_.resize(n);
    points_.xs.resize(n);
    points_.ys.resize(n);
    points_.zs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        order_[i] = static_cast<PointIdx>(i);
        points_.xs[i] = coords[i].x;
        points_.ys[i] = coords[i].y;
        points_.zs[i] = coords[i].z;
    }
}

NodeIdx
BlockTree::addNode(const BlockNode &node)
{
    nodes_.push_back(node);
    return static_cast<NodeIdx>(nodes_.size() - 1);
}

void
BlockTree::rebuildLeafList()
{
    leaves_.clear();
    if (nodes_.empty())
        return;
    // Stackless pre-order walk via parent links (left before right —
    // DFT memory order): descend leftmost, then climb until a right
    // sibling remains unvisited. No auxiliary stack means the warm
    // partitionInto path stays heap-free.
    NodeIdx cur = 0;
    for (;;) {
        while (!nodes_[cur].isLeaf())
            cur = nodes_[cur].left;
        leaves_.push_back(cur);
        NodeIdx parent = nodes_[cur].parent;
        while (parent != kNoNode && (nodes_[parent].right == cur ||
                                     nodes_[parent].right == kNoNode)) {
            cur = parent;
            parent = nodes_[cur].parent;
        }
        if (parent == kNoNode)
            return;
        cur = nodes_[parent].right;
    }
}

NodeIdx
BlockTree::searchSpaceNode(NodeIdx leaf) const
{
    const BlockNode &n = nodes_[leaf];
    if (n.depth <= 1 || n.parent == kNoNode)
        return leaf;
    return n.parent;
}

std::uint16_t
BlockTree::maxDepth() const
{
    std::uint16_t d = 0;
    for (const NodeIdx leaf : leaves_)
        d = std::max(d, nodes_[leaf].depth);
    return d;
}

std::uint32_t
BlockTree::maxLeafSize() const
{
    std::uint32_t m = 0;
    for (const NodeIdx leaf : leaves_)
        m = std::max(m, nodes_[leaf].size());
    return m;
}

std::uint32_t
BlockTree::minLeafSize() const
{
    std::uint32_t m = numPoints();
    for (const NodeIdx leaf : leaves_)
        m = std::min(m, nodes_[leaf].size());
    return leaves_.empty() ? 0 : m;
}

double
BlockTree::leafSizeCv() const
{
    if (leaves_.empty())
        return 0.0;
    double sum = 0.0, sum_sq = 0.0;
    for (const NodeIdx leaf : leaves_) {
        const double s = nodes_[leaf].size();
        sum += s;
        sum_sq += s * s;
    }
    const double n = static_cast<double>(leaves_.size());
    const double mean = sum / n;
    if (mean <= 0.0)
        return 0.0;
    const double var = std::max(0.0, sum_sq / n - mean * mean);
    return std::sqrt(var) / mean;
}

void
BlockTree::validate() const
{
    fc_assert(!nodes_.empty(), "empty tree");
    const BlockNode &root = nodes_[0];
    fc_assert(root.begin == 0 && root.end == numPoints(),
              "root range [%u,%u) does not span %u points", root.begin,
              root.end, numPoints());

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const BlockNode &n = nodes_[i];
        fc_assert(n.begin <= n.end, "node %zu inverted range", i);
        if (!n.isLeaf()) {
            fc_assert(n.right != kNoNode,
                      "node %zu has left child but no right child", i);
            const BlockNode &l = nodes_[n.left];
            const BlockNode &r = nodes_[n.right];
            fc_assert(l.begin == n.begin && r.end == n.end &&
                          l.end == r.begin,
                      "node %zu children do not tile the parent range",
                      i);
            fc_assert(l.parent == static_cast<NodeIdx>(i) &&
                          r.parent == static_cast<NodeIdx>(i),
                      "node %zu children have wrong parent links", i);
            fc_assert(l.depth == n.depth + 1 && r.depth == n.depth + 1,
                      "node %zu children have wrong depth", i);
        }
    }

    // Leaves must tile [0, n) in DFT order.
    std::uint32_t cursor = 0;
    for (const NodeIdx leaf : leaves_) {
        const BlockNode &n = nodes_[leaf];
        fc_assert(n.isLeaf(), "leaf list contains non-leaf node %d",
                  leaf);
        fc_assert(n.begin == cursor,
                  "leaf %d begins at %u, expected %u (not DFT-ordered)",
                  leaf, n.begin, cursor);
        cursor = n.end;
    }
    fc_assert(cursor == numPoints(), "leaves cover %u of %u points",
              cursor, numPoints());

    // The order must be a permutation.
    std::vector<bool> seen(order_.size(), false);
    for (const PointIdx idx : order_) {
        fc_assert(idx < order_.size(), "order entry %u out of range",
                  idx);
        fc_assert(!seen[idx], "order entry %u duplicated", idx);
        seen[idx] = true;
    }
}

std::string
BlockTree::summary() const
{
    std::ostringstream os;
    os << "BlockTree: " << numPoints() << " points, " << nodes_.size()
       << " nodes, " << leaves_.size() << " leaves, max depth "
       << maxDepth() << ", leaf sizes [" << minLeafSize() << ", "
       << maxLeafSize() << "], cv " << leafSizeCv();
    return os.str();
}

} // namespace fc::part
