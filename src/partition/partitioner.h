/**
 * @file
 * Common interface for point-cloud partitioning strategies.
 *
 * The four strategies of the paper's Fig. 3 / Fig. 16 — none, uniform
 * (space-aware, PNNPU), KD-tree (density-aware, Crescent), octree, and
 * Fractal (shape-aware, this paper) — all produce a BlockTree plus a
 * PartitionStats record of the algorithmic work performed, which the
 * hardware models turn into cycles and energy.
 */

#ifndef FC_PARTITION_PARTITIONER_H
#define FC_PARTITION_PARTITIONER_H

#include <cstdint>
#include <memory>
#include <string>

#include "dataset/point_cloud.h"
#include "partition/block_tree.h"

namespace fc::core {
class ThreadPool;
class Workspace;
}

namespace fc::part {

/** Strategy identifiers (paper naming). */
enum class Method
{
    None,    ///< no partitioning (PointAcc baseline)
    Uniform, ///< space-uniform fixed-depth bisection (PNNPU)
    Octree,  ///< space-midpoint adaptive subdivision
    KdTree,  ///< median-split density-aware (Crescent)
    Fractal, ///< shape-aware extrema-midpoint (this paper)
};

std::string methodName(Method method);

/** Partitioning controls. Every method cycles its split axes
 *  x, y, z starting from x (paper Alg. 1, d = 0). */
struct PartitionConfig
{
    /** Threshold th: maximum points per block (paper Alg. 1). */
    std::uint32_t threshold = 256;

    /** Safety bound on recursion depth. */
    std::uint16_t max_depth = 48;
};

/**
 * Algorithmic work performed by a partitioning run. Units are abstract
 * events; the fractal-engine hardware model assigns cycles/energy.
 */
struct PartitionStats
{
    /** Point visits during extrema/partition traversals. */
    std::uint64_t elements_traversed = 0;

    /**
     * Number of level-parallel traversal passes (Fig. 5: 4 passes for
     * 1K points at BS=64; 11 for 289K at BS=256). All node splits at
     * one tree level share a pass because the hardware traverses them
     * concurrently.
     */
    std::uint32_t traversal_passes = 0;

    /** Number of median sorts (KD-tree only; Fig. 5 left). */
    std::uint64_t num_sorts = 0;

    /** Total comparator operations spent in sorts (n log2 n model). */
    std::uint64_t sort_compares = 0;

    /** Splits that had to retry on another axis (degenerate dims). */
    std::uint64_t degenerate_retries = 0;

    /** Number of split operations performed. */
    std::uint64_t num_splits = 0;

    PartitionStats &
    operator+=(const PartitionStats &o)
    {
        elements_traversed += o.elements_traversed;
        traversal_passes += o.traversal_passes;
        num_sorts += o.num_sorts;
        sort_compares += o.sort_compares;
        degenerate_retries += o.degenerate_retries;
        num_splits += o.num_splits;
        return *this;
    }
};

/** Result bundle. */
struct PartitionResult
{
    BlockTree tree;
    PartitionStats stats;
    Method method = Method::None;
    PartitionConfig config;
};

/** Abstract partitioning strategy. */
class Partitioner
{
  public:
    virtual ~Partitioner() = default;

    /**
     * Partition a cloud into blocks of at most config.threshold.
     *
     * @p pool optionally parallelizes tree construction (subtree
     * tasks over disjoint ranges of the DFT order). The resulting
     * tree — node order, ranges, split planes, and stats — is
     * bit-identical to the sequential (null-pool) build. Strategies
     * without a parallel builder ignore the pool.
     *
     * Thin wrapper over partitionInto with a private workspace; see
     * below for the allocation-free steady-state variant.
     */
    PartitionResult partition(const data::PointCloud &cloud,
                              const PartitionConfig &config,
                              core::ThreadPool *pool = nullptr) const;

    /**
     * Partition in place: @p out is rebuilt (the cloud reloaded into
     * the tree, stats zeroed) reusing its buffer capacity, and all
     * construction scratch — split records, per-chunk staging — is
     * drawn from @p ws's arena. A warm same-shape rebuild performs zero heap
     * allocations on the sequential path. Identical output to
     * partition() at any thread count.
     */
    virtual void partitionInto(const data::PointCloud &cloud,
                               const PartitionConfig &config,
                               core::ThreadPool *pool,
                               core::Workspace &ws,
                               PartitionResult &out) const = 0;

    virtual Method method() const = 0;

    std::string name() const { return methodName(method()); }
};

/** Factory covering every strategy: a new, caller-owned instance. */
std::unique_ptr<Partitioner> makePartitioner(Method method);

/**
 * The one shared instance of @p method's strategy. Partitioners hold
 * no state and partitionInto is const, so every caller on any thread
 * may use it; steady-state re-partitioning (every network stage,
 * every serve request) then never allocates a strategy.
 */
const Partitioner &partitioner(Method method);

} // namespace fc::part

#endif // FC_PARTITION_PARTITIONER_H
