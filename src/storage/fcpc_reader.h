/**
 * @file
 * Memory-mapped .fcpc reader: zero-copy block materialization.
 *
 * open() maps the whole file (mmap where available, a single read
 * into one heap buffer otherwise) and validates header + index; the
 * mapping is demand-paged. readBlock() binds a PointCloud's arrays
 * straight into the mapping (PointCloud::bindExternal) — no
 * per-point copies and no per-point heap allocations. The cloud
 * holds a keepalive on the mapping, so it stays valid even if the
 * reader is destroyed first (liveAliases() diagnoses that
 * situation). A caller that wants an owning cloud, e.g. to release
 * the mapping promptly, calls PointCloud::detach() on it.
 *
 * Section checksums are verified on first access to each block (and
 * remembered), so corruption is caught before any aliased pointer is
 * used; the verification pass doubles as the page-touch that makes
 * prefetching overlap disk latency with compute.
 */

#ifndef FC_STORAGE_FCPC_READER_H
#define FC_STORAGE_FCPC_READER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/point_cloud.h"
#include "storage/fcpc_format.h"

namespace fc::storage {

/** Why open()/readBlock() refused. */
enum class FcpcStatus : std::uint8_t {
    Ok,
    IoError,     ///< open/stat/map/read failed
    BadMagic,    ///< not an .fcpc file (or unfinished writer output)
    BadVersion,  ///< container version other than kFcpcVersion
    BadEndian,   ///< foreign-endian file; zero-copy impossible
    Truncated,   ///< file shorter than the header says
    BadIndex,    ///< index out of bounds or checksum mismatch
    BadChecksum, ///< a block section failed its checksum
    BadBlock,    ///< block id out of range / sections out of bounds
};

const char *fcpcStatusName(FcpcStatus status);

/**
 * One open .fcpc file. Thread-safe for concurrent readBlock calls
 * once open() returned Ok (validation state is atomic; the mapping is
 * immutable).
 */
class FcpcReader
{
  public:
    FcpcReader() = default;
    ~FcpcReader() = default;

    FcpcReader(const FcpcReader &) = delete;
    FcpcReader &operator=(const FcpcReader &) = delete;

    /** Map and validate @p path. On failure the reader stays
     *  closed and status() says why. */
    FcpcStatus open(const std::string &path);

    bool isOpen() const { return map_ != nullptr; }
    FcpcStatus status() const { return status_; }

    /** Blocks in the file (0 when closed). */
    std::size_t blockCount() const { return index_.size(); }

    /** Consistent-hash placement key of block @p i (ShardMap
     *  keyspace). */
    std::uint64_t placementKey(std::size_t i) const;

    /** Points in block @p i. */
    std::size_t blockPoints(std::size_t i) const;

    /** Bytes of block @p i's sections (excluding padding). */
    std::size_t blockBytes(std::size_t i) const;

    /**
     * Bind block @p i into @p out, zero-copy: no per-point work, only
     * the section pointer binds plus a checksum pass on first access.
     * Returns BadChecksum/BadBlock without touching @p out on a
     * corrupt block.
     */
    FcpcStatus readBlock(std::size_t i, data::PointCloud &out);

    /**
     * Verify block @p i's section checksums now (idempotent; cached).
     * The prefetcher calls this on pool threads so the page faults
     * and the checksum pass happen off the consumer's critical path.
     */
    FcpcStatus validateBlock(std::size_t i);

    /**
     * Zero-copy clouds still aliasing the mapping, excluding the
     * reader's own reference. A nonzero value at reader destruction
     * is NOT a bug (the mapping lives until the last cloud drops it)
     * but is worth surfacing when a caller expected the file closed.
     */
    std::size_t liveAliases() const;

    /** Total mapped bytes (0 when closed). */
    std::size_t mappedBytes() const;

    /** True when the platform mmap path is active (false = the heap
     *  read fallback, e.g. no sys/mman.h). */
    bool isMemoryMapped() const;

  private:
    /** Immutable file image + unmap/free on last release. */
    class Mapping;

    FcpcStatus validateLayout() const;

    std::shared_ptr<const Mapping> map_;
    std::vector<FcpcBlockDesc> index_; ///< copied out of the mapping
    /** Per-block validation memo: 0 unknown, 1 ok, else the failed
     *  FcpcStatus. unique_ptr keeps FcpcReader movable-free but the
     *  atomics stable. */
    std::unique_ptr<std::atomic<std::uint8_t>[]> validated_;
    FcpcStatus status_ = FcpcStatus::IoError;
};

} // namespace fc::storage

#endif // FC_STORAGE_FCPC_READER_H
