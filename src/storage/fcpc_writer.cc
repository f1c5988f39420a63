#include "storage/fcpc_writer.h"

#include <cstring>

#include "common/logging.h"
#include "core/shard_map.h"

namespace fc::storage {

namespace {

constexpr char kZeroPad[kFcpcAlign] = {};

} // namespace

FcpcWriter::~FcpcWriter()
{
    // An unfinished file is garbage by contract (no valid header);
    // nothing to do beyond closing the stream.
}

bool
FcpcWriter::open(const std::string &path)
{
    fc_assert(!open_, "FcpcWriter::open called twice");
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        return false;
    // Placeholder header; finish() seeks back and writes the real one
    // (a reader opening the file before finish() sees magic == 0 and
    // rejects it).
    const FcpcFileHeader blank{};
    out_.write(reinterpret_cast<const char *>(&blank), sizeof blank);
    pos_ = sizeof blank;
    open_ = static_cast<bool>(out_);
    failed_ = !open_;
    return open_;
}

bool
FcpcWriter::padToAlignment()
{
    const std::uint64_t aligned = alignUp(pos_);
    if (aligned != pos_) {
        out_.write(kZeroPad, static_cast<std::streamsize>(aligned - pos_));
        pos_ = aligned;
    }
    return static_cast<bool>(out_);
}

bool
FcpcWriter::writeSection(const void *data, std::size_t bytes,
                         std::uint64_t &offset, std::uint64_t &checksum)
{
    if (!padToAlignment())
        return false;
    offset = pos_;
    checksum = fnv1a64(data, bytes);
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(bytes));
    pos_ += bytes;
    return static_cast<bool>(out_);
}

bool
FcpcWriter::append(const data::PointCloud &cloud,
                   std::uint64_t placement_key)
{
    if (!open_ || failed_)
        return false;

    FcpcBlockDesc desc{};
    desc.num_points = cloud.size();
    desc.feature_dim = static_cast<std::uint32_t>(cloud.featureDim());
    desc.has_labels = cloud.hasLabels() ? 1u : 0u;
    desc.placement_key =
        placement_key != 0
            ? placement_key
            : core::ShardMap::mix(0x66637063u /* 'fcpc' */ +
                                  index_.size() + 1);

    const std::span<const Vec3> coords = cloud.coords();
    bool ok = writeSection(coords.data(), coords.size() * sizeof(Vec3),
                           desc.coords_offset, desc.coords_checksum);
    if (ok && desc.feature_dim > 0) {
        const std::span<const float> feats = cloud.features();
        ok = writeSection(feats.data(), feats.size() * sizeof(float),
                          desc.features_offset,
                          desc.features_checksum);
    }
    if (ok && desc.has_labels != 0) {
        const std::span<const std::int32_t> labels = cloud.labels();
        ok = writeSection(labels.data(),
                          labels.size() * sizeof(std::int32_t),
                          desc.labels_offset, desc.labels_checksum);
    }
    if (!ok) {
        failed_ = true;
        return false;
    }
    index_.push_back(desc);
    return true;
}

bool
FcpcWriter::finish()
{
    if (!open_ || failed_)
        return false;
    if (!padToAlignment()) {
        failed_ = true;
        return false;
    }

    FcpcFileHeader header{};
    header.magic = kFcpcMagic;
    header.version = kFcpcVersion;
    header.endian_tag = kFcpcEndianTag;
    header.header_bytes = sizeof(FcpcFileHeader);
    header.block_count = index_.size();
    header.index_offset = pos_;
    const std::size_t index_bytes =
        index_.size() * sizeof(FcpcBlockDesc);
    header.index_checksum =
        index_.empty() ? fnv1a64(nullptr, 0)
                       : fnv1a64(index_.data(), index_bytes);
    out_.write(reinterpret_cast<const char *>(index_.data()),
               static_cast<std::streamsize>(index_bytes));
    pos_ += index_bytes;
    header.file_bytes = pos_;

    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(&header), sizeof header);
    out_.flush();
    const bool ok = static_cast<bool>(out_);
    out_.close();
    open_ = false;
    failed_ = !ok;
    return ok;
}

bool
writeFcpc(const std::vector<data::PointCloud> &clouds,
          const std::string &path)
{
    FcpcWriter writer;
    if (!writer.open(path))
        return false;
    for (const data::PointCloud &cloud : clouds)
        if (!writer.append(cloud))
            return false;
    return writer.finish();
}

} // namespace fc::storage
