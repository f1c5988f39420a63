/**
 * @file
 * Read-ahead ring over an FcpcReader: overlap disk latency with
 * compute.
 *
 * A BlockPrefetcher keeps up to `depth` blocks ahead of the consumer
 * in flight on a ThreadPool. "Reading ahead" an mmap'd block means
 * running its checksum validation on a pool thread — that pass
 * faults every page of the block's sections into the page cache, so
 * by the time the consumer calls get() the zero-copy bind touches
 * only warm memory. The ring is keyed by block ordinal.
 *
 * depth = 0 (or a null pool) degrades to a synchronous reader —
 * the prefetch-off reference the equality tests compare against.
 *
 * Thread-safety: one consumer thread calls get(). Internal state is
 * mutex-protected; the destructor drains in-flight reads before
 * returning (the pool must outlive the prefetcher).
 */

#ifndef FC_STORAGE_PREFETCH_H
#define FC_STORAGE_PREFETCH_H

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "core/parallel.h"
#include "dataset/point_cloud.h"
#include "storage/fcpc_reader.h"

namespace fc::storage {

/** Configuration of a BlockPrefetcher. */
struct PrefetchOptions
{
    /** Blocks kept in flight ahead of the consumer; 0 = synchronous
     *  (no read-ahead, the prefetch-off reference mode). */
    std::size_t depth = 4;

    /** Pool the read-ahead work runs on (a standalone pool, or any
     *  pool with idle capacity); null = synchronous. Must outlive
     *  the prefetcher. */
    core::ThreadPool *pool = nullptr;

    /** How get() materializes clouds. */
    ReadMode mode = ReadMode::ZeroCopy;
};

/** Prefetch telemetry counters (racy snapshots, telemetry only). */
struct PrefetchStats
{
    std::size_t hits = 0;     ///< get() found the block ready
    std::size_t waits = 0;    ///< get() waited on an in-flight read
    std::size_t misses = 0;   ///< get() had to read synchronously
    std::size_t scheduled = 0; ///< read-ahead tasks launched
};

/**
 * Sequential-consumer read-ahead over one open FcpcReader.
 */
class BlockPrefetcher
{
  public:
    explicit BlockPrefetcher(std::shared_ptr<FcpcReader> reader,
                             const PrefetchOptions &options = {});
    ~BlockPrefetcher();

    BlockPrefetcher(const BlockPrefetcher &) = delete;
    BlockPrefetcher &operator=(const BlockPrefetcher &) = delete;

    /**
     * Materialize block @p block into @p out; schedules read-ahead
     * of the next `depth` blocks before (possibly) waiting, so the
     * disk stays busy while the caller computes.
     */
    FcpcStatus get(std::size_t block, data::PointCloud &out);

    PrefetchStats stats() const;

  private:
    struct Slot
    {
        bool ready = false;
        FcpcStatus status = FcpcStatus::Ok;
        data::PointCloud cloud;
    };

    /** Launch an async read of @p block if absent (caller holds no
     *  lock). */
    void schedule(std::size_t block);

    std::shared_ptr<FcpcReader> reader_;
    PrefetchOptions options_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::size_t, Slot> slots_; ///< scheduled or ready blocks
    std::size_t inflight_ = 0; ///< tasks launched, not yet completed
    PrefetchStats stats_;
};

} // namespace fc::storage

#endif // FC_STORAGE_PREFETCH_H
