/**
 * @file
 * Shared-weight multi-layer perceptron (the "MLPs" of the paper's
 * feature-computation pathway, §II-A).
 *
 * Weights are deterministic (He-initialized from a seeded PCG32) —
 * the accuracy proxy (DESIGN.md §4.2) compares *operator pipelines*
 * under identical fixed weights, so no training loop exists anywhere
 * in the library. Every layer applies y = relu(W x + b) row-wise with
 * fp16 rounding on weights and activations.
 */

#ifndef FC_NN_MLP_H
#define FC_NN_MLP_H

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace fc::core {
class ThreadPool;
class Workspace;
}

namespace fc::nn {

/** One linear + ReLU layer with fixed random weights. */
class LinearRelu
{
  public:
    /**
     * @param in    input channels
     * @param out   output channels
     * @param seed  weight seed (deterministic)
     * @param relu  apply ReLU (disabled for final logits layers)
     */
    LinearRelu(std::size_t in, std::size_t out, std::uint64_t seed,
               bool relu = true);

    /**
     * Apply to every row of @p x; returns [rows x out]. Rows are
     * independent, so they dispatch in chunks over @p pool (null =
     * sequential); every row's arithmetic is unchanged, making the
     * result bit-identical at any thread count.
     */
    Tensor forward(const Tensor &x,
                   core::ThreadPool *pool = nullptr) const;

    /** In-place overload: @p out is reshaped reusing its capacity
     *  (the allocation-free steady-state path). @p out must not
     *  alias @p x. */
    void forward(const Tensor &x, core::ThreadPool *pool,
                 Tensor &out) const;

    std::size_t inDim() const { return in_; }
    std::size_t outDim() const { return out_; }

    /** MAC count to process @p rows rows. */
    std::uint64_t
    macs(std::uint64_t rows) const
    {
        return rows * in_ * out_;
    }

  private:
    std::size_t in_;
    std::size_t out_;
    bool relu_;
    Tensor weights_; // [out x in], fp16-rounded
    std::vector<float> bias_;
};

/** A stack of LinearRelu layers. */
class Mlp
{
  public:
    Mlp() = default;

    /**
     * @param widths [c_in, h1, h2, ..., c_out]
     * @param seed   base weight seed; layer i uses seed + i
     */
    Mlp(const std::vector<std::size_t> &widths, std::uint64_t seed);

    /** Row-chunked over @p pool, layer by layer (see LinearRelu). */
    Tensor forward(const Tensor &x,
                   core::ThreadPool *pool = nullptr) const;

    /**
     * In-place overload: inter-layer activations ping-pong between
     * two tensor slots of @p ws ("mlp.ping"/"mlp.pong" — shared by
     * every Mlp drawing from the workspace, sized to the largest
     * layer seen), and @p out is reshaped reusing its capacity.
     * @p x and @p out must not be those slots (network code passes
     * its own stage slots).
     */
    void forward(const Tensor &x, core::ThreadPool *pool,
                 core::Workspace &ws, Tensor &out) const;

    std::size_t inDim() const;
    std::size_t outDim() const;

    std::uint64_t macs(std::uint64_t rows) const;

    const std::vector<LinearRelu> &layers() const { return layers_; }

  private:
    std::vector<LinearRelu> layers_;
};

/**
 * Max-pool groups of @p group_size consecutive rows:
 * [groups * group_size x c] -> [groups x c]. The pooling-unit
 * operation that reduces each gathered neighborhood to one feature.
 * Groups own disjoint output rows and dispatch in chunks over
 * @p pool; results are bit-identical at any thread count.
 */
Tensor maxPoolGroups(const Tensor &x, std::size_t group_size,
                     core::ThreadPool *pool = nullptr);

/** In-place overload of maxPoolGroups (capacity-reusing @p out). */
void maxPoolGroups(const Tensor &x, std::size_t group_size,
                   core::ThreadPool *pool, Tensor &out);

/** Column-wise max over all rows: [n x c] -> [1 x c]. Sequential and
 *  deterministic (fold in row order). */
Tensor globalMaxPool(const Tensor &x);

/** In-place overload of globalMaxPool: @p out reuses capacity —
 *  allocation-free once warm. */
void globalMaxPool(const Tensor &x, Tensor &out);

} // namespace fc::nn

#endif // FC_NN_MLP_H
