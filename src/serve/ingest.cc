#include "serve/ingest.h"

#include "common/logging.h"

namespace fc::serve {

namespace {

/** Blocks the prefetcher keeps in flight ahead of submission. */
constexpr std::size_t kReadAhead = 4;

} // namespace

StorageIngestor::StorageIngestor(
    AsyncPipeline &pipeline,
    std::shared_ptr<storage::FcpcReader> reader)
    : pipeline_(pipeline), reader_(std::move(reader)),
      io_pool_(1, /*standalone=*/true),
      prefetcher_(reader_, {kReadAhead, &io_pool_})
{
    fc_assert(reader_ != nullptr && reader_->isOpen(),
              "ingestor needs an open reader");

    core::metrics::Registry &reg = pipeline_.metrics();
    blocks_ = &reg.counter("serve.ingest.blocks");
    bytes_ = &reg.counter("serve.ingest.bytes");
    errors_ = &reg.counter("serve.ingest.errors");
    prefetch_hits_ = &reg.counter("serve.ingest.prefetch_hits");
    prefetch_waits_ = &reg.counter("serve.ingest.prefetch_waits");
}

storage::PrefetchStats
StorageIngestor::prefetchStats() const
{
    return prefetcher_.stats();
}

std::vector<IngestResult>
StorageIngestor::runAll(const BatchRequest &request)
{
    const std::size_t blocks = reader_->blockCount();
    std::vector<IngestResult> results(blocks);
    std::vector<std::optional<Ticket>> tickets(blocks);

    const storage::PrefetchStats before = prefetcher_.stats();

    // Submission loop: pull each block out of the ring (scheduling
    // the next `depth` reads), then hand it to the pipeline under
    // the block's own placement key. submit() blocks on admission
    // when the queue is full, which is exactly the backpressure the
    // ring needs — reads stay `depth` ahead of admission, not of
    // completion.
    for (std::size_t i = 0; i < blocks; ++i) {
        data::PointCloud cloud;
        const storage::FcpcStatus status =
            prefetcher_.get(i, cloud);
        results[i].storage_status = status;
        if (status != storage::FcpcStatus::Ok) {
            errors_->add();
            continue;
        }
        blocks_->add();
        bytes_->add(reader_->blockBytes(i));
        // The (zero-copy) cloud moves into the pipeline; the mapping
        // keepalive rides inside it, so the file may be closed while
        // tickets are still in flight.
        tickets[i] = pipeline_.submit(
            std::move(cloud), request, std::nullopt, Priority::Batch,
            reader_->placementKey(i));
    }

    for (std::size_t i = 0; i < blocks; ++i)
        if (tickets[i].has_value())
            results[i].outcome = pipeline_.wait(*tickets[i]);

    const storage::PrefetchStats after = prefetcher_.stats();
    prefetch_hits_->add(after.hits - before.hits);
    prefetch_waits_->add(after.waits - before.waits);
    return results;
}

} // namespace fc::serve
