#include "core/shard_map.h"

#include <algorithm>

#include "common/logging.h"

namespace fc::core {

std::uint64_t
ShardMap::mix(std::uint64_t x)
{
    // splitmix64 finalizer: cheap, well-distributed, and fixed for
    // all time — placement must never drift between builds.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

ShardMap::ShardMap(unsigned num_shards) : num_shards_(num_shards)
{
    fc_assert(num_shards_ >= 1, "shard map needs at least one shard");
    if (num_shards_ == 1)
        return; // every key maps to shard 0; no ring needed
    ring_.reserve(static_cast<std::size_t>(num_shards_) * kReplicas);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
            // Ring points are a function of (shard, replica) only, so
            // shard s's points are identical at any shard count —
            // the consistency property.
            const std::uint64_t h =
                mix((static_cast<std::uint64_t>(s) << 32) | r);
            ring_.push_back(Point{h, s});
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const Point &a, const Point &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.shard < b.shard;
              });
}

unsigned
ShardMap::shardFor(std::uint64_t key) const
{
    if (num_shards_ == 1)
        return 0;
    const std::uint64_t h = mix(key);
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const Point &p, std::uint64_t value) {
            return p.hash < value;
        });
    return it == ring_.end() ? ring_.front().shard : it->shard;
}

} // namespace fc::core
