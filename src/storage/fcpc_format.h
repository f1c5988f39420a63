/**
 * @file
 * On-disk layout of the FractalCloud point-cloud container (.fcpc).
 *
 * Design goal (from "Joint Optimization of Storage and Loading" in
 * PAPERS.md; ROADMAP.md carries its follow-up as the "persist the DFT
 * order in .fcpc" gap): the file layout IS the in-memory layout, so
 * loading a block is pointer binding, not parsing. Coordinates are
 * AoS Vec3, features are row-major [n x feature_dim] and labels are
 * plain int32, exactly as PointCloud owns them, and a block holds
 * only the sections a reader binds.
 *
 * File layout (all integers little-endian, all offsets absolute file
 * offsets, every section 64-byte aligned to match core::Arena's
 * cache-line alignment):
 *
 *   FileHeader                              (64 bytes)
 *   block 0 sections: coords | [features] | [labels]
 *   block 1 sections: ...
 *   ...
 *   BlockDesc[block_count]                  (the index)
 *
 * The index lives at the END so the writer can stream blocks without
 * buffering the dataset; the header (rewritten last) points at it.
 * Every section and the index carry an FNV-1a 64 checksum, so a
 * truncated or bit-flipped file is detected before any pointer into
 * the mapping escapes the reader.
 *
 * Versioning: kFcpcMagic + kFcpcVersion gate the reader; any layout
 * change bumps kFcpcVersion (version 1 also held the coordinates
 * transposed into x/y/z columns, which no reader bound). A reader
 * opens exactly its own version and rejects every other one instead
 * of guessing.
 */

#ifndef FC_STORAGE_FCPC_FORMAT_H
#define FC_STORAGE_FCPC_FORMAT_H

#include <cstddef>
#include <cstdint>

namespace fc::storage {

/** "FCPC" in the file's first four bytes. */
inline constexpr std::uint32_t kFcpcMagic = 0x43504346u; // 'F''C''P''C' LE

/** Current container version. */
inline constexpr std::uint32_t kFcpcVersion = 2;

/** Written as 0x01020304 by a little-endian writer; a reader seeing
 *  any other value is on a foreign-endian host and must refuse the
 *  zero-copy path. */
inline constexpr std::uint32_t kFcpcEndianTag = 0x01020304u;

/** Section alignment: every section starts on a 64-byte boundary
 *  (cache line; also satisfies any SIMD load the kernels use). */
inline constexpr std::size_t kFcpcAlign = 64;

/** Fixed 64-byte file header at offset 0. */
struct FcpcFileHeader
{
    std::uint32_t magic;        ///< kFcpcMagic
    std::uint32_t version;      ///< kFcpcVersion
    std::uint32_t endian_tag;   ///< kFcpcEndianTag
    std::uint32_t header_bytes; ///< sizeof(FcpcFileHeader)
    std::uint64_t block_count;  ///< number of BlockDesc entries
    std::uint64_t index_offset; ///< offset of BlockDesc[block_count]
    std::uint64_t file_bytes;   ///< total file size (truncation gate)
    std::uint64_t index_checksum; ///< FNV-1a 64 of the index bytes
    std::uint8_t reserved[16];  ///< zero; future use
};
static_assert(sizeof(FcpcFileHeader) == 64,
              "header must stay exactly one cache line");

/** One block (one PointCloud) in the index. Offsets are absolute and
 *  64-byte aligned; features_offset/labels_offset are 0 when the
 *  block has no features/labels. */
struct FcpcBlockDesc
{
    std::uint64_t placement_key; ///< consistent-hash key (ShardMap)
    std::uint64_t num_points;
    std::uint32_t feature_dim; ///< 0 = no feature section
    std::uint32_t has_labels;  ///< 0/1 = label section absent/present
    std::uint64_t coords_offset;   ///< AoS Vec3[num_points]
    std::uint64_t features_offset; ///< float[num_points*feature_dim]
    std::uint64_t labels_offset;   ///< int32[num_points]
    std::uint64_t coords_checksum;
    std::uint64_t features_checksum;
    std::uint64_t labels_checksum;
    std::uint64_t reserved; ///< zero; future use
};
static_assert(sizeof(FcpcBlockDesc) == 80,
              "index entries are 80 bytes each");

/** FNV-1a 64 over a byte range — tiny, dependency-free, and fast
 *  enough that the validation pass doubles as the page-touch that
 *  warms the mapping. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t bytes,
        std::uint64_t seed = 0xcbf29ce484222325ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Round @p offset up to the section alignment. */
inline std::uint64_t
alignUp(std::uint64_t offset)
{
    return (offset + (kFcpcAlign - 1)) & ~static_cast<std::uint64_t>(
                                             kFcpcAlign - 1);
}

} // namespace fc::storage

#endif // FC_STORAGE_FCPC_FORMAT_H
