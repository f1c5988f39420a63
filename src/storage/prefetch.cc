#include "storage/prefetch.h"

#include "common/logging.h"

namespace fc::storage {

BlockPrefetcher::BlockPrefetcher(std::shared_ptr<FcpcReader> reader,
                                 const PrefetchOptions &options)
    : reader_(std::move(reader)), options_(options)
{
    fc_assert(reader_ != nullptr, "prefetcher needs a reader");
}

BlockPrefetcher::~BlockPrefetcher()
{
    // Detached read tasks capture `this`; block until the last one
    // retires so destruction never races a fill.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return inflight_ == 0; });
}

PrefetchStats
BlockPrefetcher::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
BlockPrefetcher::schedule(std::size_t block)
{
    if (options_.pool == nullptr || options_.depth == 0 ||
        block >= reader_->blockCount())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (slots_.count(block) != 0)
            return; // already scheduled (or ready and unconsumed)
        slots_.emplace(block, Slot{});
        ++inflight_;
        ++stats_.scheduled;
    }
    options_.pool->submitDetached([this, block] {
        // The validation pass is the useful work: it faults the
        // block's pages in and verifies checksums off the consumer's
        // critical path. The bind itself is three pointers.
        data::PointCloud cloud;
        const FcpcStatus status =
            reader_->readBlock(block, cloud, options_.mode);
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &slot = slots_[block];
        slot.status = status;
        if (status == FcpcStatus::Ok)
            slot.cloud = std::move(cloud);
        slot.ready = true;
        --inflight_;
        cv_.notify_all();
    });
}

FcpcStatus
BlockPrefetcher::get(std::size_t block, data::PointCloud &out)
{
    if (block >= reader_->blockCount())
        return FcpcStatus::BadBlock;

    // Keep the ring full: this block plus the next `depth`.
    const std::size_t last =
        std::min(block + options_.depth, reader_->blockCount() - 1);
    for (std::size_t b = block; b <= last; ++b)
        schedule(b);

    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots_.find(block);
    if (it == slots_.end()) {
        // Synchronous mode (no pool / depth 0), or a random-access
        // consumer outran the ring.
        ++stats_.misses;
        lock.unlock();
        return reader_->readBlock(block, out, options_.mode);
    }
    if (it->second.ready)
        ++stats_.hits;
    else
        ++stats_.waits;
    cv_.wait(lock, [&] { return it->second.ready; });
    const FcpcStatus status = it->second.status;
    if (status == FcpcStatus::Ok)
        out = std::move(it->second.cloud);
    slots_.erase(it);
    return status;
}

} // namespace fc::storage
