/**
 * @file
 * The sharded execution layer: N independent ThreadPool shards plus a
 * deterministic consistent-hash shard map.
 *
 * The paper's block-parallel design assumes many independent on-chip
 * blocks that can be placed and drained independently; one global
 * FIFO pool serializes that freedom at the host level. A
 * ShardedExecutor instead owns N ThreadPool shards — each with its
 * own queue, workers, and condition variable — so multi-socket hosts
 * can run one shard per socket (queue contention and cache traffic
 * stay shard-local) and the serving layer can place whole requests
 * onto shards deterministically.
 *
 * Placement is by consistent hashing (ShardMap): each shard owns
 * kReplicas pseudo-random points on a 64-bit ring, and a key maps to
 * the shard owning the first ring point at or after the key's hash.
 * The map is a pure function of the shard count, so:
 *
 *   - the same key always lands on the same shard (affinity: a
 *     client session keyed by id keeps hitting warm caches), and
 *   - changing the shard count from N to N+1 remaps only the keys
 *     the new shard's points capture (~1/(N+1) of them) instead of
 *     reshuffling everything, which is what makes shard-count
 *     reconfiguration cheap for sticky clients.
 *
 * A ShardedExecutor with one shard is exactly one ThreadPool — the
 * single-pool runtime of PR 1-4, bit for bit. Every operation in the
 * library is deterministic with respect to its pool, so WHERE a
 * request runs never changes WHAT it computes; shards trade only
 * placement, contention, and tail latency.
 */

#ifndef FC_CORE_SHARDED_EXECUTOR_H
#define FC_CORE_SHARDED_EXECUTOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/parallel.h"

namespace fc::core {

namespace metrics {
class Registry;
class Counter;
} // namespace metrics

/**
 * Deterministic consistent-hash ring: shard placement as a pure
 * function of (key, num_shards). Cheap to copy; the serving scheduler
 * and the executor each build their own identical instance.
 */
class ShardMap
{
  public:
    /** Ring points per shard. More replicas = smoother key balance;
     *  64 keeps the worst shard within a few percent of fair share
     *  while the ring stays cache-resident. */
    static constexpr unsigned kReplicas = 64;

    explicit ShardMap(unsigned num_shards);

    unsigned numShards() const { return num_shards_; }

    /** Shard owning @p key: binary search for the first ring point at
     *  or after hash(key), wrapping to the first point. */
    unsigned shardFor(std::uint64_t key) const;

    /** The 64-bit mix (splitmix64) both ring points and keys go
     *  through; exposed so tests can reason about the ring. */
    static std::uint64_t mix(std::uint64_t x);

  private:
    struct Point
    {
        std::uint64_t hash;
        std::uint32_t shard;
    };

    unsigned num_shards_;
    std::vector<Point> ring_; ///< sorted by hash
};

/**
 * N ThreadPool shards behind one object. Shards are fully
 * independent: separate queues, workers, mutexes, and condition
 * variables — there is no cross-shard stealing at the pool level.
 * Work-conserving policies live one layer up (the serving scheduler
 * decides per stage which shard's idle threads to borrow), which
 * keeps this class a pure placement/ownership primitive.
 */
class ShardedExecutor
{
  public:
    /**
     * @param num_shards       >= 1 shards (1 = the single-pool
     *                         runtime, unchanged).
     * @param threads_per_shard ThreadPool size per shard (0 = all
     *                         hardware threads — note that each shard
     *                         then gets a full-size pool; multi-shard
     *                         deployments should size explicitly).
     * @param standalone       passed through to every ThreadPool (see
     *                         ThreadPool::ThreadPool).
     * @param pin_workers      pin each shard's workers to a disjoint
     *                         cpu set (shard s prefers NUMA node
     *                         s % nodes; see core/topology.h) so a
     *                         shard's arenas stay in one socket's
     *                         pages. Best-effort and overridable at
     *                         runtime via FC_NO_PIN=1; never affects
     *                         results, only locality.
     */
    explicit ShardedExecutor(unsigned num_shards,
                             unsigned threads_per_shard = 0,
                             bool standalone = false,
                             bool pin_workers = false);

    ShardedExecutor(const ShardedExecutor &) = delete;
    ShardedExecutor &operator=(const ShardedExecutor &) = delete;

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Resolved per-shard thread count (>= 1, uniform across shards). */
    unsigned threadsPerShard() const
    {
        return shards_.front()->numThreads();
    }

    /** Total worker budget across all shards. */
    unsigned totalThreads() const
    {
        return numShards() * threadsPerShard();
    }

    ThreadPool &
    shard(unsigned index)
    {
        return *shards_[index];
    }

    /** Whether worker pinning was requested, allowed (FC_NO_PIN
     *  unset), and cpu sets were computed. Individual affinity calls
     *  remain best-effort; this reports the policy, not per-thread
     *  success. */
    bool pinned() const { return pinned_; }

    /**
     * Submit a detached (whole-request) task onto @p shard's pool,
     * counting it against the shard's task telemetry. The serving
     * layer submits through here instead of shard(i).submitDetached
     * so per-shard task counts cover every request task. Templated
     * so small callables ride the pool's InlineTask slots without a
     * std::function materialization (allocation-free warm).
     */
    template <typename Fn>
    void
    submitDetached(unsigned shard, Fn &&task)
    {
        noteSubmitted(shard);
        shards_[shard]->submitDetached(std::forward<Fn>(task));
    }

    /**
     * Register per-shard task counters
     * (core.executor.tasks{shard=i}) into @p registry; subsequent
     * submitDetached calls count against them too. @p registry must
     * outlive this executor. Call at most once.
     */
    void attachMetrics(metrics::Registry &registry);

  private:
    /** Bounds-check @p shard and bump its task counters (the
     *  out-of-line half of submitDetached). */
    void noteSubmitted(unsigned shard);

    std::vector<std::unique_ptr<ThreadPool>> shards_;
    bool pinned_ = false;

    /** Per-shard detached-task counters; empty until attachMetrics. */
    std::vector<metrics::Counter *> task_counters_;
};

} // namespace fc::core

#endif // FC_CORE_SHARDED_EXECUTOR_H
