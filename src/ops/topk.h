/**
 * @file
 * Shared insertion-based top-k selection (ascending distance) used by
 * the KNN of neighbor search, block interpolation and k-NN graph
 * construction.
 *
 * k is small in every PNN/DGCNN configuration (3..64), so candidates
 * live in a fixed inline buffer and offering a candidate performs no
 * heap allocation — a requirement of the allocation-free steady state
 * (core/workspace.h). Larger k (foreign callers) falls back to one
 * heap buffer per TopK instance.
 *
 * Insertion semantics match the historical per-op implementations
 * exactly: a candidate is placed at the lower_bound of its distance
 * (ties insert *before* existing equal-distance entries) and the
 * worst entry is dropped, so every migrated call site stays
 * bit-identical.
 */

#ifndef FC_OPS_TOPK_H
#define FC_OPS_TOPK_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/simd.h"

namespace fc::ops {

class TopK
{
  public:
    /** Largest k served from the inline buffer. */
    static constexpr std::size_t kInline = 64;

    explicit TopK(std::size_t k) : k_(k)
    {
        if (k_ > kInline)
            overflow_.resize(k_);
    }

    /** Offer one candidate; keeps the k nearest seen so far.
     *  Deterministic: result depends only on the offer sequence
     *  (ties keep earlier-offered entries ahead); never allocates
     *  for k <= kInline. */
    void
    offer(float dist, PointIdx idx)
    {
        std::pair<float, PointIdx> *buf = buffer();
        if (count_ == k_ && dist >= buf[count_ - 1].first)
            return;
        const auto *pos = std::lower_bound(
            buf, buf + count_, dist,
            [](const std::pair<float, PointIdx> &a, float d) {
                return a.first < d;
            });
        const std::size_t at = static_cast<std::size_t>(pos - buf);
        const std::size_t last =
            count_ < k_ ? count_ : k_ - 1; // drop the worst when full
        for (std::size_t j = last; j > at; --j)
            buf[j] = buf[j - 1];
        buf[at] = {dist, idx};
        if (count_ < k_)
            ++count_;
    }

    /**
     * Offer @p n candidates of @p pts: candidate i sits at position
     * positions[i] and is kept as idxs[i] (its point id, or whatever
     * the caller reads back, such as a feature row). Equivalent to
     * offering each in order. Squared distances come from
     * core::simd::distance2Range over a stack tile, so the scan never
     * allocates, and the worst-entry screen at the top of offer()
     * makes far candidates cost one compare.
     */
    void
    offerPositions(const core::simd::SoaView &pts, const Vec3 &query,
                   const std::uint32_t *positions, const PointIdx *idxs,
                   std::uint32_t n)
    {
        // 512 B of stack, and long enough for distance2Range to run
        // full-width.
        constexpr std::uint32_t kScreenTile = 128;
        float dist_tile[kScreenTile];
        for (std::uint32_t tb = 0; tb < n; tb += kScreenTile) {
            const std::uint32_t te = std::min(n, tb + kScreenTile);
            core::simd::distance2Range(pts, positions, 0, query, tb, te,
                                       dist_tile);
            for (std::uint32_t i = tb; i < te; ++i)
                offer(dist_tile[i - tb], idxs[i]);
        }
    }

    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** The count() entries (distance, index), nearest first. */
    const std::pair<float, PointIdx> *
    data() const
    {
        return k_ <= kInline ? inline_.data() : overflow_.data();
    }

    /** Write exactly @p k entries into @p row, padding empty slots
     *  with the nearest entry (kInvalidPoint when none was found). */
    void
    emitRow(PointIdx *row) const
    {
        const std::pair<float, PointIdx> *buf = data();
        std::size_t col = 0;
        for (; col < count_; ++col)
            row[col] = buf[col].second;
        const PointIdx pad = count_ > 0 ? buf[0].second : kInvalidPoint;
        for (; col < k_; ++col)
            row[col] = pad;
    }

  private:
    std::pair<float, PointIdx> *
    buffer()
    {
        return k_ <= kInline ? inline_.data() : overflow_.data();
    }

    std::size_t k_;
    std::size_t count_ = 0;
    std::array<std::pair<float, PointIdx>, kInline> inline_;
    std::vector<std::pair<float, PointIdx>> overflow_;
};

} // namespace fc::ops

#endif // FC_OPS_TOPK_H
