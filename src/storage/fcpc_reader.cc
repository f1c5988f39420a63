#include "storage/fcpc_reader.h"

#include <cstring>
#include <fstream>

#include "common/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#define FC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FC_HAVE_MMAP 0
#endif

namespace fc::storage {

const char *
fcpcStatusName(FcpcStatus status)
{
    switch (status) {
    case FcpcStatus::Ok: return "ok";
    case FcpcStatus::IoError: return "io-error";
    case FcpcStatus::BadMagic: return "bad-magic";
    case FcpcStatus::BadVersion: return "bad-version";
    case FcpcStatus::BadEndian: return "bad-endian";
    case FcpcStatus::Truncated: return "truncated";
    case FcpcStatus::BadIndex: return "bad-index";
    case FcpcStatus::BadChecksum: return "bad-checksum";
    case FcpcStatus::BadBlock: return "bad-block";
    }
    return "unknown";
}

/**
 * The immutable file image. Owns either an mmap'd range or a heap
 * buffer (fallback); zero-copy clouds keep a shared_ptr to this, so
 * the bytes outlive both the reader and the file descriptor.
 */
class FcpcReader::Mapping
{
  public:
    static std::shared_ptr<const Mapping>
    create(const std::string &path)
    {
#if FC_HAVE_MMAP
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            struct stat st{};
            if (::fstat(fd, &st) == 0 && st.st_size > 0) {
                void *base =
                    ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
                ::close(fd); // the mapping holds its own reference
                if (base != MAP_FAILED) {
                    auto map = std::make_shared<Mapping>();
                    map->base_ = static_cast<const std::byte *>(base);
                    map->bytes_ = static_cast<std::size_t>(st.st_size);
                    map->mmapped_ = true;
                    return map;
                }
                return nullptr;
            }
            ::close(fd);
            return nullptr;
        }
        return nullptr;
#else
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (!in)
            return nullptr;
        const std::streamoff bytes = in.tellg();
        if (bytes <= 0)
            return nullptr;
        auto map = std::make_shared<Mapping>();
        map->heap_.resize(static_cast<std::size_t>(bytes));
        in.seekg(0);
        in.read(reinterpret_cast<char *>(map->heap_.data()), bytes);
        if (!in)
            return nullptr;
        map->base_ = map->heap_.data();
        map->bytes_ = map->heap_.size();
        return map;
#endif
    }

    Mapping() = default;

    ~Mapping()
    {
#if FC_HAVE_MMAP
        if (mmapped_ && base_ != nullptr)
            ::munmap(const_cast<std::byte *>(base_), bytes_);
#endif
    }

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    const std::byte *data() const { return base_; }
    std::size_t size() const { return bytes_; }
    bool memoryMapped() const { return mmapped_; }

  private:
    const std::byte *base_ = nullptr;
    std::size_t bytes_ = 0;
    bool mmapped_ = false;
#if !FC_HAVE_MMAP
    std::vector<std::byte> heap_; ///< fallback storage only
#endif
};

FcpcStatus
FcpcReader::open(const std::string &path)
{
    map_.reset();
    index_.clear();
    validated_.reset();

    std::shared_ptr<const Mapping> map = Mapping::create(path);
    if (map == nullptr || map->size() < sizeof(FcpcFileHeader))
        return status_ = map == nullptr ? FcpcStatus::IoError
                                        : FcpcStatus::Truncated;

    FcpcFileHeader header;
    std::memcpy(&header, map->data(), sizeof header);
    if (header.magic != kFcpcMagic)
        return status_ = FcpcStatus::BadMagic;
    if (header.endian_tag != kFcpcEndianTag)
        return status_ = FcpcStatus::BadEndian;
    if (header.version != kFcpcVersion)
        return status_ = FcpcStatus::BadVersion;
    if (header.header_bytes != sizeof(FcpcFileHeader))
        return status_ = FcpcStatus::BadMagic;
    if (header.file_bytes != map->size())
        return status_ = FcpcStatus::Truncated;

    const std::uint64_t index_bytes =
        header.block_count * sizeof(FcpcBlockDesc);
    if (header.index_offset > map->size() ||
        index_bytes > map->size() - header.index_offset)
        return status_ = FcpcStatus::BadIndex;

    std::vector<FcpcBlockDesc> index(header.block_count);
    std::memcpy(index.data(), map->data() + header.index_offset,
                index_bytes);
    const std::uint64_t index_sum =
        index.empty() ? fnv1a64(nullptr, 0)
                      : fnv1a64(index.data(), index_bytes);
    if (index_sum != header.index_checksum)
        return status_ = FcpcStatus::BadIndex;

    map_ = std::move(map);
    index_ = std::move(index);
    if (const FcpcStatus layout = validateLayout();
        layout != FcpcStatus::Ok) {
        map_.reset();
        index_.clear();
        return status_ = layout;
    }
    if (!index_.empty()) {
        validated_ =
            std::make_unique<std::atomic<std::uint8_t>[]>(index_.size());
        for (std::size_t i = 0; i < index_.size(); ++i)
            validated_[i].store(0, std::memory_order_relaxed);
    }
    return status_ = FcpcStatus::Ok;
}

FcpcStatus
FcpcReader::validateLayout() const
{
    // Every section must lie inside the file; this is the structural
    // half of validation (cheap, done once at open). The content half
    // (checksums) is per-block and lazy.
    const std::size_t file_bytes = map_->size();
    for (const FcpcBlockDesc &d : index_) {
        const auto fits = [file_bytes](std::uint64_t off,
                                       std::uint64_t bytes) {
            return off <= file_bytes && bytes <= file_bytes - off &&
                   off % kFcpcAlign == 0;
        };
        const std::uint64_t n = d.num_points;
        if (!fits(d.coords_offset, n * sizeof(Vec3)))
            return FcpcStatus::BadBlock;
        if (d.feature_dim > 0 &&
            !fits(d.features_offset,
                  n * d.feature_dim * sizeof(float)))
            return FcpcStatus::BadBlock;
        if (d.has_labels != 0 &&
            !fits(d.labels_offset, n * sizeof(std::int32_t)))
            return FcpcStatus::BadBlock;
    }
    return FcpcStatus::Ok;
}

std::uint64_t
FcpcReader::placementKey(std::size_t i) const
{
    fc_assert(i < index_.size(), "block %zu out of range (%zu)", i,
              index_.size());
    return index_[i].placement_key;
}

std::size_t
FcpcReader::blockPoints(std::size_t i) const
{
    fc_assert(i < index_.size(), "block %zu out of range (%zu)", i,
              index_.size());
    return index_[i].num_points;
}

std::size_t
FcpcReader::blockBytes(std::size_t i) const
{
    fc_assert(i < index_.size(), "block %zu out of range (%zu)", i,
              index_.size());
    const FcpcBlockDesc &d = index_[i];
    std::size_t bytes = d.num_points * sizeof(Vec3);
    bytes += d.num_points * d.feature_dim * sizeof(float);
    if (d.has_labels != 0)
        bytes += d.num_points * sizeof(std::int32_t);
    return bytes;
}

FcpcStatus
FcpcReader::validateBlock(std::size_t i)
{
    if (!isOpen())
        return status_;
    if (i >= index_.size())
        return FcpcStatus::BadBlock;
    // Memoized: the release store pairs with the acquire load, so a
    // thread seeing "ok" also sees any page the checksum pass
    // faulted in (the prefetcher's whole point).
    const std::uint8_t memo =
        validated_[i].load(std::memory_order_acquire);
    if (memo != 0)
        return memo == 1 ? FcpcStatus::Ok
                         : static_cast<FcpcStatus>(memo);

    const FcpcBlockDesc &d = index_[i];
    const std::byte *base = map_->data();
    const std::uint64_t n = d.num_points;
    const auto check = [base](std::uint64_t off, std::uint64_t bytes,
                              std::uint64_t expected) {
        return fnv1a64(base + off, bytes) == expected;
    };
    bool ok = check(d.coords_offset, n * sizeof(Vec3),
                    d.coords_checksum);
    if (ok && d.feature_dim > 0)
        ok = check(d.features_offset,
                   n * d.feature_dim * sizeof(float),
                   d.features_checksum);
    if (ok && d.has_labels != 0)
        ok = check(d.labels_offset, n * sizeof(std::int32_t),
                   d.labels_checksum);

    const FcpcStatus result =
        ok ? FcpcStatus::Ok : FcpcStatus::BadChecksum;
    validated_[i].store(
        ok ? 1 : static_cast<std::uint8_t>(result),
        std::memory_order_release);
    return result;
}

FcpcStatus
FcpcReader::readBlock(std::size_t i, data::PointCloud &out)
{
    if (!isOpen())
        return status_;
    if (i >= index_.size())
        return FcpcStatus::BadBlock;
    if (const FcpcStatus v = validateBlock(i); v != FcpcStatus::Ok)
        return v;

    const FcpcBlockDesc &d = index_[i];
    const std::byte *base = map_->data();
    data::ExternalCloudView view;
    view.size = d.num_points;
    view.coords =
        reinterpret_cast<const Vec3 *>(base + d.coords_offset);
    view.feature_dim = d.feature_dim;
    if (d.feature_dim > 0)
        view.features =
            reinterpret_cast<const float *>(base + d.features_offset);
    if (d.has_labels != 0)
        view.labels = reinterpret_cast<const std::int32_t *>(
            base + d.labels_offset);

    out.bindExternal(view, map_);
    return FcpcStatus::Ok;
}

std::size_t
FcpcReader::liveAliases() const
{
    if (map_ == nullptr)
        return 0;
    const long uses = map_.use_count();
    return uses > 1 ? static_cast<std::size_t>(uses - 1) : 0;
}

std::size_t
FcpcReader::mappedBytes() const
{
    return map_ != nullptr ? map_->size() : 0;
}

bool
FcpcReader::isMemoryMapped() const
{
    return map_ != nullptr && map_->memoryMapped();
}

} // namespace fc::storage
