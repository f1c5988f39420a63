/**
 * @file
 * serve::StorageIngestor — feed an .fcpc file through the
 * AsyncPipeline.
 *
 * The ingestion path the storage layer exists for: blocks stream out
 * of a BlockPrefetcher (mmap + read-ahead, so disk latency overlaps
 * compute) and into AsyncPipeline::submit (moved in — the mapping
 * keepalive rides inside each zero-copy cloud), each submitted under
 * the placement key stored in the file's index. The pipeline hashes
 * that key through its consistent-hash ShardMap, so every block lands
 * on the shard that owns its key, pass after pass.
 *
 * Results are byte-identical to submitting preloaded in-memory
 * clouds: the zero-copy cloud aliases the same bytes the writer
 * serialized, every pipeline stage is deterministic, and placement
 * never changes WHAT a request computes. The equality tests in
 * tests/test_storage.cc hold this across shard counts {1, 2, 4} and
 * prefetch on/off.
 *
 * Metrics (in the pipeline's registry, rendered by serve/stats.h):
 *   serve.ingest.blocks        blocks submitted
 *   serve.ingest.bytes         section bytes submitted (12 per
 *                              point for coordinates, plus 4 per
 *                              feature channel and 4 for a label;
 *                              16 per point of an S3DIS block)
 *   serve.ingest.errors        blocks refused by the reader
 *   serve.ingest.prefetch_hits get() served from a completed read
 *   serve.ingest.prefetch_waits get() waited on an in-flight read
 */

#ifndef FC_SERVE_INGEST_H
#define FC_SERVE_INGEST_H

#include <memory>
#include <optional>
#include <vector>

#include "serve/async_pipeline.h"
#include "storage/prefetch.h"

namespace fc::serve {

/** Configuration of one ingestion run. */
struct IngestOptions
{
    /** Read-ahead depth; 0 = synchronous loads (prefetch off). */
    std::size_t prefetch_depth = 4;

    /** Threads of the ingestor's private I/O pool (distinct from the
     *  pipeline's compute shards so a slow disk never steals compute
     *  slots). Ignored when prefetch_depth == 0. */
    unsigned io_threads = 1;

    /** Zero-copy by default; Copy forces owning clouds (e.g. when
     *  the file must be replaced while requests are in flight). */
    storage::ReadMode mode = storage::ReadMode::ZeroCopy;

    /** Admission class for ingested blocks. Batch by default:
     *  ingestion is throughput traffic and must not crowd
     *  interactive requests. */
    Priority priority = Priority::Batch;

    /** Optional per-block deadline (relative, as in submit()). */
    std::optional<Clock::duration> deadline;
};

/** Outcome of one ingested block. */
struct IngestResult
{
    /** Reader verdict; the block was submitted only when Ok. */
    storage::FcpcStatus storage_status = storage::FcpcStatus::Ok;

    /** Pipeline outcome; meaningful only when storage_status is
     *  Ok. */
    RequestOutcome outcome;
};

/**
 * Streams every block of one open .fcpc reader through a pipeline.
 * Construct per file; runAll() may be called repeatedly (e.g. one
 * epoch per call).
 */
class StorageIngestor
{
  public:
    StorageIngestor(AsyncPipeline &pipeline,
                    std::shared_ptr<storage::FcpcReader> reader,
                    const IngestOptions &options = {});
    ~StorageIngestor();

    StorageIngestor(const StorageIngestor &) = delete;
    StorageIngestor &operator=(const StorageIngestor &) = delete;

    /**
     * Submit every block in index order under @p request and wait
     * for all outcomes. Blocks that fail their checksum (or any
     * other reader verdict) are reported in their slot, never
     * submitted, and never abort the run — ingestion of a damaged
     * file delivers every intact block.
     */
    std::vector<IngestResult> runAll(const BatchRequest &request = {});

    /** Prefetch telemetry of the underlying ring. */
    storage::PrefetchStats prefetchStats() const;

  private:
    AsyncPipeline &pipeline_;
    std::shared_ptr<storage::FcpcReader> reader_;
    IngestOptions options_;

    /** Private I/O pool (standalone: it hosts detached read tasks);
     *  null when prefetch is off. Declared before the prefetcher —
     *  the prefetcher's destructor drains tasks running here. */
    std::unique_ptr<core::ThreadPool> io_pool_;
    std::unique_ptr<storage::BlockPrefetcher> prefetcher_;

    core::metrics::Counter *blocks_ = nullptr;
    core::metrics::Counter *bytes_ = nullptr;
    core::metrics::Counter *errors_ = nullptr;
    core::metrics::Counter *prefetch_hits_ = nullptr;
    core::metrics::Counter *prefetch_waits_ = nullptr;
};

} // namespace fc::serve

#endif // FC_SERVE_INGEST_H
