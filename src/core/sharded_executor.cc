#include "core/sharded_executor.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "core/metrics.h"
#include "core/topology.h"

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

ShardedExecutor::ShardedExecutor(unsigned num_shards,
                                 unsigned threads_per_shard,
                                 bool standalone, bool pin_workers)
{
    fc_assert(num_shards >= 1,
              "sharded executor needs at least one shard");

    // NUMA-aware pinning: carve the detected topology into disjoint
    // per-shard cpu sets (shard s prefers node s % nodes) so each
    // shard's workers — and therefore its arenas and workspace pages
    // — stay on one socket. FC_NO_PIN=1 is the runtime escape hatch
    // for hosts where affinity is refused or harmful.
    std::vector<std::vector<int>> cpu_sets;
    pinned_ = pin_workers && !pinningDisabled();
    if (pinned_) {
        const CpuTopology topology = detectCpuTopology();
        if (topology.cpuCount() == 0)
            pinned_ = false;
        else
            cpu_sets = shardCpuAssignment(
                topology, num_shards,
                ThreadPool::resolveThreadCount(threads_per_shard));
    }

    shards_.reserve(num_shards);
    for (unsigned s = 0; s < num_shards; ++s)
        shards_.push_back(std::make_unique<ThreadPool>(
            threads_per_shard, standalone,
            pinned_ ? std::move(cpu_sets[s]) : std::vector<int>{}));
}

void
ShardedExecutor::noteSubmitted(unsigned shard)
{
    fc_assert(shard < shards_.size(), "submit on unknown shard %u",
              shard);
    if (!task_counters_.empty())
        task_counters_[shard]->add();
}

void
ShardedExecutor::attachMetrics(metrics::Registry &registry)
{
    fc_assert(task_counters_.empty(),
              "attachMetrics called twice on one executor");
    task_counters_.reserve(shards_.size());
    for (unsigned s = 0; s < shards_.size(); ++s)
        task_counters_.push_back(&registry.counter(
            "core.executor.tasks{shard=" + std::to_string(s) + "}"));
}

} // namespace fc::core
