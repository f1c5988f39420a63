/**
 * @file
 * Memory-mapped .fcpc reader: zero-copy block materialization.
 *
 * open() maps the whole file (mmap where available, a single read
 * into one heap buffer otherwise) and validates header + index.
 * readBlock() materializes a PointCloud:
 *
 *   - ReadMode::ZeroCopy binds the cloud's arrays straight into the
 *     mapping (PointCloud::bindExternal) — no per-point copies and no
 *     per-point heap allocations; the cloud holds a keepalive on the
 *     mapping, so it stays valid even if the reader is destroyed
 *     first (liveAliases() diagnoses that situation).
 *   - ReadMode::Copy deep-copies into an owning cloud — the safe
 *     fallback for callers that will mutate heavily or want the
 *     mapping released promptly.
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

/** How readBlock materializes the cloud. */
enum class ReadMode : std::uint8_t {
    ZeroCopy, ///< alias the mapping (copy-on-write on first mutation)
    Copy,     ///< deep-copy into owning vectors
};

/**
 * open()-time page residency policy. By default the mapping is
 * demand-paged: the first pass over each block (usually the
 * prefetcher's checksum walk) eats one major fault per page. Cold
 * scans that will touch the whole file anyway can hint or force
 * residency up front instead.
 */
struct ReadOptions
{
    /** madvise(MADV_WILLNEED) the whole mapping after validation:
     *  asks the kernel to start readahead immediately, overlapping
     *  disk latency with whatever runs between open() and the first
     *  readBlock(). Advisory and free; no-op without mmap. */
    bool willneed = false;

    /** Touch one byte per page after validation, forcing every page
     *  resident before open() returns (a portable MAP_POPULATE).
     *  Trades a longer open() for fault-free readBlock()s — the
     *  right call before latency-measured serving. Implies nothing
     *  about willneed; combining both is harmless. No-op without
     *  mmap (the heap fallback is resident by construction). */
    bool populate = false;
};

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

    /** Map and validate @p path, then apply @p options' residency
     *  policy (see ReadOptions). On failure the reader stays closed
     *  and status() says why. */
    FcpcStatus open(const std::string &path,
                    const ReadOptions &options = {});

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
     * Materialize block @p i into @p out. ZeroCopy performs zero
     * per-point work: three pointer binds plus a checksum pass on
     * first access. Returns BadChecksum/BadBlock without touching @p out on
     * a corrupt block.
     */
    FcpcStatus readBlock(std::size_t i, data::PointCloud &out,
                         ReadMode mode = ReadMode::ZeroCopy);

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
