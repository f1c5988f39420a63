/**
 * @file
 * Streaming .fcpc writer: open → append blocks → finish.
 *
 * Blocks are written as they arrive (no dataset-sized buffering); the
 * index and the final header land in finish(). Each appended cloud
 * becomes one block whose sections mirror PointCloud's in-memory
 * layout (see fcpc_format.h), so the reader can bind pointers into
 * the mapping instead of decoding.
 */

#ifndef FC_STORAGE_FCPC_WRITER_H
#define FC_STORAGE_FCPC_WRITER_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "dataset/point_cloud.h"
#include "storage/fcpc_format.h"

namespace fc::storage {

/**
 * Writes one .fcpc file. Not thread-safe; one writer per file.
 *
 * Usage:
 *   FcpcWriter w;
 *   if (!w.open(path)) ...;
 *   w.append(cloud_a, key_a);
 *   w.append(cloud_b, key_b);
 *   if (!w.finish()) ...;
 */
class FcpcWriter
{
  public:
    FcpcWriter() = default;
    ~FcpcWriter();

    FcpcWriter(const FcpcWriter &) = delete;
    FcpcWriter &operator=(const FcpcWriter &) = delete;

    /** Create/truncate @p path and write the header placeholder.
     *  @return false on I/O failure. */
    bool open(const std::string &path);

    /**
     * Append one cloud as the next block.
     *
     * @param placement_key consistent-hash key stored in the index;
     *        0 derives a deterministic per-file key from the block
     *        ordinal (ShardMap::mix), so every file has a usable
     *        keyspace even when the producer doesn't care.
     * @return false on I/O failure (the writer is then dead).
     */
    bool append(const data::PointCloud &cloud,
                std::uint64_t placement_key = 0);

    /** Write the index + final header and close. @return false on
     *  I/O failure; the file is only valid after finish() succeeds. */
    bool finish();

    /** Blocks appended so far. */
    std::size_t blockCount() const { return index_.size(); }

  private:
    /** Write @p bytes at the current (aligned) position, recording
     *  offset and checksum into @p offset / @p checksum. */
    bool writeSection(const void *data, std::size_t bytes,
                      std::uint64_t &offset, std::uint64_t &checksum);

    /** Pad the stream to the next kFcpcAlign boundary. */
    bool padToAlignment();

    std::ofstream out_;
    std::uint64_t pos_ = 0;
    std::vector<FcpcBlockDesc> index_;
    bool open_ = false;
    bool failed_ = false;
};

/**
 * One-call convenience: write @p clouds (one block each, index-derived
 * placement keys) to @p path. @return false on any I/O failure.
 */
bool writeFcpc(const std::vector<data::PointCloud> &clouds,
               const std::string &path);

} // namespace fc::storage

#endif // FC_STORAGE_FCPC_WRITER_H
