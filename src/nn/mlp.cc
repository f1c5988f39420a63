#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/workspace.h"

namespace fc::nn {

LinearRelu::LinearRelu(std::size_t in, std::size_t out,
                       std::uint64_t seed)
    : in_(in), out_(out), bias_(out, 0.0f)
{
    fc_assert(in > 0 && out > 0, "degenerate layer %zux%zu", in, out);
    Pcg32 rng(seed, 0x2545f4914f6cdd1dULL);
    const float scale =
        std::sqrt(2.0f / static_cast<float>(in)); // He init
    Tensor weights(out, in);
    for (std::size_t o = 0; o < out; ++o)
        for (std::size_t i = 0; i < in; ++i)
            weights.at(o, i) = rng.normal(0.0f, scale);
    for (std::size_t o = 0; o < out; ++o)
        bias_[o] = rng.normal(0.0f, 0.01f);
    weights.quantizeFp16();
    weights_ = core::simd::packLinearWeights(weights.data().data(), in,
                                             out);
}

void
LinearRelu::forward(const Tensor &x, core::ThreadPool *pool,
                    Tensor &y) const
{
    fc_assert(x.cols() == in_, "layer expects %zu channels, got %zu",
              in_, x.cols());
    fc_assert(&x != &y, "LinearRelu::forward cannot run in place");
    y.resize(x.rows(), out_);
    // Each row owns its output slice and linearReluRows is bit-equal
    // per output whatever block it runs in, so chunking never affects
    // the arithmetic. The grain is a pure function of the layer shape:
    // about 2^19 MACs (10-20 us of kernel work on one core), so a
    // pooled layer does not pay a task per few row tiles, rounded up
    // to whole row tiles of both Avx2 kernels so no chunk splits a
    // tile.
    constexpr std::size_t unit = core::simd::kLinearRowGrainUnit;
    const std::size_t grain =
        (core::costGrain(in_ * out_, std::size_t{1} << 19) + unit - 1) /
        unit * unit;
    core::parallelFor(
        pool, 0, x.rows(), grain, [&](std::size_t rb, std::size_t re) {
            core::simd::linearReluRows(weights_.data(), bias_.data(),
                                       in_, out_,
                                       x.row(rb).data(), re - rb,
                                       y.row(rb).data());
        });
}

Tensor
LinearRelu::forward(const Tensor &x, core::ThreadPool *pool) const
{
    Tensor y;
    forward(x, pool, y);
    return y;
}

Mlp::Mlp(const std::vector<std::size_t> &widths, std::uint64_t seed)
{
    fc_assert(widths.size() >= 2, "MLP needs at least in/out widths");
    layers_.reserve(widths.size() - 1);
    for (std::size_t i = 0; i + 1 < widths.size(); ++i)
        layers_.emplace_back(widths[i], widths[i + 1], seed + i);
}

Tensor
Mlp::forward(const Tensor &x, core::ThreadPool *pool) const
{
    fc_assert(!layers_.empty(), "forward through empty MLP");
    Tensor cur = layers_.front().forward(x, pool);
    for (std::size_t i = 1; i < layers_.size(); ++i)
        cur = layers_[i].forward(cur, pool);
    return cur;
}

void
Mlp::forward(const Tensor &x, core::ThreadPool *pool,
             core::Workspace &ws, Tensor &out) const
{
    fc_assert(!layers_.empty(), "forward through empty MLP");
    if (layers_.size() == 1) {
        layers_.front().forward(x, pool, out);
        return;
    }
    Tensor &ping = ws.slot<Tensor>("mlp.ping");
    Tensor &pong = ws.slot<Tensor>("mlp.pong");
    const Tensor *cur = &x;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
        Tensor &dst = (i % 2 == 0) ? ping : pong;
        layers_[i].forward(*cur, pool, dst);
        cur = &dst;
    }
    layers_.back().forward(*cur, pool, out);
}

std::size_t
Mlp::inDim() const
{
    fc_assert(!layers_.empty(), "empty MLP");
    return layers_.front().inDim();
}

std::size_t
Mlp::outDim() const
{
    fc_assert(!layers_.empty(), "empty MLP");
    return layers_.back().outDim();
}

std::uint64_t
Mlp::macs(std::uint64_t rows) const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers_)
        total += layer.macs(rows);
    return total;
}

void
maxPoolGroups(const Tensor &x, std::size_t group_size,
              core::ThreadPool *pool, Tensor &y)
{
    fc_assert(group_size > 0, "group size must be positive");
    fc_assert(x.rows() % group_size == 0,
              "rows %zu not a multiple of group size %zu", x.rows(),
              group_size);
    fc_assert(&x != &y, "maxPoolGroups cannot run in place");
    const std::size_t groups = x.rows() / group_size;
    y.resize(groups, x.cols());
    core::parallelFor(
        pool, 0, groups, core::costGrain(group_size * x.cols()),
        [&](std::size_t gb, std::size_t ge) {
            for (std::size_t g = gb; g < ge; ++g) {
                auto out = y.row(g);
                for (std::size_t c = 0; c < x.cols(); ++c)
                    out[c] = x.at(g * group_size, c);
                for (std::size_t j = 1; j < group_size; ++j) {
                    const auto in = x.row(g * group_size + j);
                    for (std::size_t c = 0; c < x.cols(); ++c)
                        out[c] = std::max(out[c], in[c]);
                }
            }
        });
}

Tensor
maxPoolGroups(const Tensor &x, std::size_t group_size,
              core::ThreadPool *pool)
{
    Tensor y;
    maxPoolGroups(x, group_size, pool, y);
    return y;
}

void
globalMaxPool(const Tensor &x, Tensor &y)
{
    fc_assert(x.rows() > 0, "global pool over empty tensor");
    fc_assert(&x != &y, "globalMaxPool cannot run in place");
    y.resize(1, x.cols());
    auto out = y.row(0);
    for (std::size_t c = 0; c < x.cols(); ++c)
        out[c] = x.at(0, c);
    for (std::size_t r = 1; r < x.rows(); ++r) {
        const auto in = x.row(r);
        for (std::size_t c = 0; c < x.cols(); ++c)
            out[c] = std::max(out[c], in[c]);
    }
}

Tensor
globalMaxPool(const Tensor &x)
{
    Tensor y;
    globalMaxPool(x, y);
    return y;
}

} // namespace fc::nn
