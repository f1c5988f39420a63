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
 * The ingestion policy is fixed: the prefetcher reads 4 blocks ahead
 * on a private one-thread I/O pool (distinct from the pipeline's
 * compute shards, so a slow disk never steals compute slots), every
 * block is a zero-copy bind, and every block is submitted at
 * Priority::Batch — throughput traffic that must not crowd
 * interactive requests — with no deadline.
 *
 * Results are byte-identical to submitting preloaded in-memory
 * clouds: the zero-copy cloud aliases the same bytes the writer
 * serialized, every pipeline stage is deterministic, and placement
 * never changes WHAT a request computes. The equality tests in
 * tests/test_storage.cc hold this across shard counts {1, 2, 4}.
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
#include <vector>

#include "serve/async_pipeline.h"
#include "storage/prefetch.h"

namespace fc::serve {

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
                    std::shared_ptr<storage::FcpcReader> reader);

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

    /** Private one-thread I/O pool (standalone: it hosts detached
     *  read tasks). Declared before the prefetcher — the
     *  prefetcher's destructor drains tasks running here. */
    core::ThreadPool io_pool_;
    storage::BlockPrefetcher prefetcher_;

    core::metrics::Counter *blocks_ = nullptr;
    core::metrics::Counter *bytes_ = nullptr;
    core::metrics::Counter *errors_ = nullptr;
    core::metrics::Counter *prefetch_hits_ = nullptr;
    core::metrics::Counter *prefetch_waits_ = nullptr;
};

} // namespace fc::serve

#endif // FC_SERVE_INGEST_H
