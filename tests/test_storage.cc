/**
 * @file
 * Tests for the .fcpc binary columnar container: write → mmap → read
 * roundtrips for all three dataset families, corruption error paths,
 * zero-copy alias lifetime, allocation-free loads, prefetch-on ==
 * prefetch-off equality of the read-ahead ring, and ingestion equality
 * with preloaded clouds on the serve path across shard counts.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

// Reads the binary-wide allocation counter installed by
// test_workspace.cc's alloc_hook TU.
#include "common/alloc_count.h"
#include "core/parallel.h"
#include "core/shard_map.h"
#include "dataset/io.h"
#include "dataset/modelnet.h"
#include "dataset/s3dis.h"
#include "dataset/shapenet.h"
#include "serve/ingest.h"
#include "storage/convert.h"
#include "storage/fcpc_format.h"
#include "storage/fcpc_reader.h"
#include "storage/fcpc_writer.h"
#include "storage/prefetch.h"

namespace fc::storage {
namespace {

using data::PointCloud;

std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->test_suite_name() + "_" +
           info->name() + "_" + name;
}

/** Bit-exact equality: the container must reproduce every byte of
 *  every array, not approximately-equal floats. */
void
expectCloudsBitIdentical(const PointCloud &a, const PointCloud &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.featureDim(), b.featureDim());
    ASSERT_EQ(a.hasLabels(), b.hasLabels());
    if (a.size() == 0)
        return;
    EXPECT_EQ(std::memcmp(a.coords().data(), b.coords().data(),
                          a.size() * sizeof(Vec3)),
              0);
    if (a.featureDim() > 0) {
        EXPECT_EQ(std::memcmp(a.features().data(),
                              b.features().data(),
                              a.features().size() * sizeof(float)),
                  0);
    }
    if (a.hasLabels()) {
        EXPECT_EQ(std::memcmp(a.labels().data(), b.labels().data(),
                              a.size() * sizeof(std::int32_t)),
                  0);
    }
}

/** Flip one byte of a file in place. */
void
corruptByte(const std::string &path, std::size_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

/** Truncate a file to @p bytes. */
void
truncateFile(const std::string &path, std::size_t bytes)
{
    std::string contents;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in);
        contents.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    ASSERT_LE(bytes, contents.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(bytes));
}

TEST(StorageRoundtrip, S3disSceneLabeled)
{
    const PointCloud original = data::makeS3disScene(3000, 11);
    ASSERT_TRUE(original.hasLabels());
    const std::string path = tempPath("s3dis.fcpc");
    ASSERT_TRUE(writeFcpc({original}, path));

    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    ASSERT_EQ(reader.blockCount(), 1u);
    PointCloud zero_copy;
    ASSERT_EQ(reader.readBlock(0, zero_copy), FcpcStatus::Ok);
    EXPECT_TRUE(zero_copy.isExternal());
    expectCloudsBitIdentical(original, zero_copy);

    PointCloud copied;
    ASSERT_EQ(reader.readBlock(0, copied), FcpcStatus::Ok);
    copied.detach();
    EXPECT_FALSE(copied.isExternal());
    expectCloudsBitIdentical(original, copied);
    std::remove(path.c_str());
}

TEST(StorageRoundtrip, ShapeNetObjectLabeled)
{
    const PointCloud original = data::makeShapeNetObject(2, 2000, 7);
    const std::string path = tempPath("shapenet.fcpc");
    ASSERT_TRUE(writeFcpc({original}, path));
    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    PointCloud loaded;
    ASSERT_EQ(reader.readBlock(0, loaded), FcpcStatus::Ok);
    expectCloudsBitIdentical(original, loaded);
    std::remove(path.c_str());
}

TEST(StorageRoundtrip, ModelNetObjectWithFeatures)
{
    PointCloud original = data::makeModelNetObject(5, 1000, 3);
    original.allocateFeatures(4);
    std::vector<float> &feats = original.features();
    for (std::size_t i = 0; i < feats.size(); ++i)
        feats[i] = static_cast<float>(i) * 0.25f - 100.0f;

    const std::string path = tempPath("modelnet.fcpc");
    ASSERT_TRUE(writeFcpc({original}, path));
    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    PointCloud loaded;
    ASSERT_EQ(reader.readBlock(0, loaded), FcpcStatus::Ok);
    EXPECT_EQ(loaded.featureDim(), 4u);
    expectCloudsBitIdentical(original, loaded);
    EXPECT_EQ(loaded.featureRow(3)[2], original.featureRow(3)[2]);
    std::remove(path.c_str());
}

TEST(StorageRoundtrip, MultiBlockIndexAndKeys)
{
    std::vector<PointCloud> clouds;
    for (int c = 0; c < 5; ++c)
        clouds.push_back(data::makeModelNetObject(c, 200 + 50 * c,
                                                  100 + c));
    const std::string path = tempPath("multi.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));

    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    ASSERT_EQ(reader.blockCount(), clouds.size());
    for (std::size_t i = 0; i < clouds.size(); ++i) {
        EXPECT_EQ(reader.blockPoints(i), clouds[i].size());
        EXPECT_NE(reader.placementKey(i), 0u);
        PointCloud loaded;
        ASSERT_EQ(reader.readBlock(i, loaded), FcpcStatus::Ok);
        expectCloudsBitIdentical(clouds[i], loaded);
    }
    // Derived keys are deterministic: a second writer produces the
    // same keyspace.
    const std::string path2 = tempPath("multi2.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path2));
    FcpcReader reader2;
    ASSERT_EQ(reader2.open(path2), FcpcStatus::Ok);
    for (std::size_t i = 0; i < clouds.size(); ++i)
        EXPECT_EQ(reader.placementKey(i), reader2.placementKey(i));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(StorageRoundtrip, BlocksHoldOnlyTheirBoundSections)
{
    // A block is coords | [features] | [labels], each section padded
    // to kFcpcAlign and nothing else: the header, the sections and the
    // index add up to the file, and blockBytes() counts 12 bytes per
    // point plus 4 per feature channel plus 4 for a label. Signed
    // zeros, a NaN payload and a negative denormal must survive the
    // AoS section bit for bit.
    std::vector<PointCloud> clouds;
    for (int c = 0; c < 3; ++c)
        clouds.push_back(data::makeModelNetObject(c, 300 + 70 * c,
                                                  40 + c));
    clouds[1][5] = Vec3{-0.0f, std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::denorm_min()};
    clouds[2].allocateFeatures(5);
    for (std::size_t i = 0; i < clouds[2].features().size(); ++i)
        clouds[2].features()[i] = static_cast<float>(i) * 0.5f;
    clouds.push_back(data::makeS3disScene(777, 44));
    PointCloud both = data::makeShapeNetObject(1, 413, 45);
    both.allocateFeatures(3);
    clouds.push_back(std::move(both));
    const std::string path = tempPath("sections.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));

    std::string file;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in);
        file.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    FcpcFileHeader header;
    ASSERT_GE(file.size(), sizeof header);
    std::memcpy(&header, file.data(), sizeof header);
    ASSERT_EQ(header.version, kFcpcVersion);
    ASSERT_EQ(header.block_count, clouds.size());
    ASSERT_EQ(header.file_bytes, file.size());
    ASSERT_LE(header.index_offset +
                  clouds.size() * sizeof(FcpcBlockDesc),
              file.size());

    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    std::uint64_t cursor = sizeof(FcpcFileHeader);
    // Each section must start where the previous one's padding ends.
    const auto expectNextSection = [&](std::uint64_t offset,
                                       std::uint64_t bytes) {
        EXPECT_EQ(offset, cursor);
        cursor = alignUp(cursor + bytes);
    };
    for (std::size_t b = 0; b < clouds.size(); ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        FcpcBlockDesc d;
        std::memcpy(&d,
                    file.data() + header.index_offset +
                        b * sizeof(FcpcBlockDesc),
                    sizeof d);
        const PointCloud &cloud = clouds[b];
        const std::uint64_t n = cloud.size();
        ASSERT_EQ(d.num_points, n);
        ASSERT_EQ(d.feature_dim, cloud.featureDim());
        ASSERT_EQ(d.has_labels, cloud.hasLabels() ? 1u : 0u);
        EXPECT_EQ(reader.blockBytes(b),
                  n * (12 + 4 * d.feature_dim + 4 * d.has_labels));

        expectNextSection(d.coords_offset, n * sizeof(Vec3));
        ASSERT_LE(d.coords_offset + n * sizeof(Vec3), file.size());
        EXPECT_EQ(std::memcmp(file.data() + d.coords_offset,
                              cloud.coords().data(), n * sizeof(Vec3)),
                  0);
        if (d.feature_dim > 0)
            expectNextSection(d.features_offset,
                              n * d.feature_dim * sizeof(float));
        else
            EXPECT_EQ(d.features_offset, 0u);
        if (d.has_labels != 0)
            expectNextSection(d.labels_offset,
                              n * sizeof(std::int32_t));
        else
            EXPECT_EQ(d.labels_offset, 0u);
    }
    EXPECT_EQ(header.index_offset, cursor);
    EXPECT_EQ(cursor + clouds.size() * sizeof(FcpcBlockDesc),
              header.file_bytes);
    std::remove(path.c_str());
}

TEST(StorageErrors, MissingFile)
{
    FcpcReader reader;
    EXPECT_EQ(reader.open("/nonexistent/nowhere.fcpc"),
              FcpcStatus::IoError);
    EXPECT_FALSE(reader.isOpen());
}

TEST(StorageErrors, BadMagicRejected)
{
    const std::string path = tempPath("magic.fcpc");
    ASSERT_TRUE(writeFcpc({data::makeModelNetObject(0, 64, 1)}, path));
    corruptByte(path, 0);
    FcpcReader reader;
    EXPECT_EQ(reader.open(path), FcpcStatus::BadMagic);
    std::remove(path.c_str());
}

TEST(StorageErrors, OtherVersionsRejected)
{
    // A reader opens exactly its own version: an older layout is
    // refused as firmly as a newer one.
    const std::string path = tempPath("version.fcpc");
    for (const std::uint32_t version :
         {kFcpcVersion - 1, kFcpcVersion + 1}) {
        SCOPED_TRACE("version " + std::to_string(version));
        ASSERT_TRUE(
            writeFcpc({data::makeModelNetObject(0, 64, 1)}, path));
        {
            std::fstream f(path, std::ios::binary | std::ios::in |
                                     std::ios::out);
            f.seekp(4); // FcpcFileHeader::version
            f.write(reinterpret_cast<const char *>(&version),
                    sizeof version);
        }
        FcpcReader reader;
        EXPECT_EQ(reader.open(path), FcpcStatus::BadVersion);
        EXPECT_FALSE(reader.isOpen());
    }
    std::remove(path.c_str());
}

TEST(StorageErrors, TruncatedFileRejected)
{
    const std::string path = tempPath("trunc.fcpc");
    ASSERT_TRUE(writeFcpc({data::makeModelNetObject(0, 256, 1)}, path));
    truncateFile(path, 200);
    FcpcReader reader;
    EXPECT_EQ(reader.open(path), FcpcStatus::Truncated);
    std::remove(path.c_str());
}

TEST(StorageErrors, UnfinishedWriterOutputRejected)
{
    // A writer that never reached finish() leaves the blank header
    // placeholder; readers must refuse it (magic == 0).
    const std::string path = tempPath("unfinished.fcpc");
    {
        FcpcWriter writer;
        ASSERT_TRUE(writer.open(path));
        ASSERT_TRUE(
            writer.append(data::makeModelNetObject(0, 64, 1)));
        // no finish()
    }
    FcpcReader reader;
    EXPECT_EQ(reader.open(path), FcpcStatus::BadMagic);
    std::remove(path.c_str());
}

TEST(StorageErrors, CorruptIndexRejected)
{
    const std::string path = tempPath("index.fcpc");
    ASSERT_TRUE(writeFcpc({data::makeModelNetObject(0, 128, 1)}, path));
    // Index is the last sizeof(FcpcBlockDesc) bytes of the file.
    std::size_t file_bytes = 0;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        file_bytes = static_cast<std::size_t>(in.tellg());
    }
    corruptByte(path, file_bytes - sizeof(FcpcBlockDesc) / 2);
    FcpcReader reader;
    EXPECT_EQ(reader.open(path), FcpcStatus::BadIndex);
    std::remove(path.c_str());
}

TEST(StorageErrors, BadSectionChecksumRejectsBlockOnly)
{
    std::vector<PointCloud> clouds;
    clouds.push_back(data::makeModelNetObject(0, 128, 1));
    clouds.push_back(data::makeModelNetObject(1, 128, 2));
    const std::string path = tempPath("checksum.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));
    // Block 0's first section (AoS coords) starts at the first
    // aligned offset after the header.
    corruptByte(path, sizeof(FcpcFileHeader));

    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    PointCloud loaded;
    EXPECT_EQ(reader.readBlock(0, loaded), FcpcStatus::BadChecksum);
    // The verdict is memoized.
    EXPECT_EQ(reader.validateBlock(0), FcpcStatus::BadChecksum);
    // The intact block still loads.
    EXPECT_EQ(reader.readBlock(1, loaded), FcpcStatus::Ok);
    expectCloudsBitIdentical(clouds[1], loaded);
    std::remove(path.c_str());
}

TEST(StorageAlias, CloudOutlivesReader)
{
    const PointCloud original = data::makeModelNetObject(2, 300, 9);
    const std::string path = tempPath("alias.fcpc");
    ASSERT_TRUE(writeFcpc({original}, path));

    PointCloud cloud;
    {
        auto reader = std::make_unique<FcpcReader>();
        ASSERT_EQ(reader->open(path), FcpcStatus::Ok);
        EXPECT_EQ(reader->liveAliases(), 0u);
        ASSERT_EQ(reader->readBlock(0, cloud), FcpcStatus::Ok);
        // The misuse diagnosis: one cloud still aliases the mapping.
        EXPECT_EQ(reader->liveAliases(), 1u);
        PointCloud second;
        ASSERT_EQ(reader->readBlock(0, second), FcpcStatus::Ok);
        EXPECT_EQ(reader->liveAliases(), 2u);
    } // reader destroyed; the keepalive keeps the mapping
    ASSERT_TRUE(cloud.isExternal());
    expectCloudsBitIdentical(original, cloud);

    // Copy-on-write detach still works with the reader gone.
    cloud[0] = Vec3{1.0f, 2.0f, 3.0f};
    EXPECT_FALSE(cloud.isExternal());
    EXPECT_FLOAT_EQ(cloud[0].x, 1.0f);
    std::remove(path.c_str());
}

TEST(StorageAlias, CopiesShareTheKeepalive)
{
    const PointCloud original = data::makeModelNetObject(2, 100, 9);
    const std::string path = tempPath("copies.fcpc");
    ASSERT_TRUE(writeFcpc({original}, path));
    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    PointCloud a;
    ASSERT_EQ(reader.readBlock(0, a), FcpcStatus::Ok);
    {
        const PointCloud b = a; // shares alias + keepalive, no copy
        EXPECT_TRUE(b.isExternal());
        EXPECT_EQ(reader.liveAliases(), 2u);
        expectCloudsBitIdentical(a, b);
    }
    EXPECT_EQ(reader.liveAliases(), 1u);
    std::remove(path.c_str());
}

TEST(StorageAlloc, ZeroCopyLoadAllocatesNothingPerPoint)
{
    // 20K points: if the load allocated per point (or copied into
    // fresh vectors) the hook would count thousands of allocations.
    const PointCloud original = data::makeS3disScene(20000, 21);
    const std::string path = tempPath("alloc.fcpc");
    ASSERT_TRUE(writeFcpc({original}, path));

    FcpcReader reader;
    ASSERT_EQ(reader.open(path), FcpcStatus::Ok);
    PointCloud warm; // constructed (and bound once) outside the
                     // measured window, like a reused serve slot
    ASSERT_EQ(reader.readBlock(0, warm), FcpcStatus::Ok);

    const std::uint64_t before = heapAllocCount();
    ASSERT_EQ(reader.readBlock(0, warm), FcpcStatus::Ok);
    const std::uint64_t after = heapAllocCount();
    EXPECT_EQ(after - before, 0u)
        << "zero-copy load must not touch the heap";
    expectCloudsBitIdentical(original, warm);
    std::remove(path.c_str());
}

TEST(StorageConcurrent, ParallelReadBlockAndFirstTouch)
{
    // Many threads materialize and first-read the same blocks
    // concurrently: exercises the reader's atomic validation memo
    // (run under TSan in CI).
    std::vector<PointCloud> clouds;
    for (int c = 0; c < 4; ++c)
        clouds.push_back(data::makeModelNetObject(c, 500, 50 + c));
    const std::string path = tempPath("concurrent.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));

    auto reader = std::make_shared<FcpcReader>();
    ASSERT_EQ(reader->open(path), FcpcStatus::Ok);

    std::vector<std::thread> threads;
    std::vector<int> failures(8, 0);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 5; ++rep) {
                const std::size_t b =
                    static_cast<std::size_t>(t + rep) %
                    reader->blockCount();
                PointCloud cloud;
                if (reader->readBlock(b, cloud) != FcpcStatus::Ok) {
                    ++failures[t];
                    continue;
                }
                // Const reads only: the non-const operator[] is a
                // mutator (detach) and owner-only.
                const PointCloud &c = cloud;
                const PointCloud &original = clouds[b];
                if (c.size() != original.size() ||
                    c[c.size() - 1] != original[c.size() - 1])
                    ++failures[t];
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int f : failures)
        EXPECT_EQ(f, 0);
    std::remove(path.c_str());
}

TEST(StoragePrefetch, RingMatchesSynchronousReads)
{
    std::vector<PointCloud> clouds;
    for (int c = 0; c < 8; ++c)
        clouds.push_back(
            data::makeModelNetObject(c % 3, 400 + 30 * c, 70 + c));
    const std::string path = tempPath("ring.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));

    auto reader = std::make_shared<FcpcReader>();
    ASSERT_EQ(reader->open(path), FcpcStatus::Ok);

    core::ThreadPool pool(2, /*standalone=*/true);
    PrefetchOptions on;
    on.depth = 3;
    on.pool = &pool;
    PrefetchOptions off;
    off.depth = 0;

    BlockPrefetcher with(reader, on);
    BlockPrefetcher without(reader, off);
    for (std::size_t i = 0; i < reader->blockCount(); ++i) {
        PointCloud a, b;
        ASSERT_EQ(with.get(i, a), FcpcStatus::Ok);
        ASSERT_EQ(without.get(i, b), FcpcStatus::Ok);
        expectCloudsBitIdentical(a, b);
        expectCloudsBitIdentical(clouds[i], a);
    }
    const PrefetchStats stats = with.stats();
    EXPECT_GT(stats.scheduled, 0u);
    std::remove(path.c_str());
}

TEST(StorageConvert, XyzAndPlyConvertersRoundTrip)
{
    PointCloud original = data::makeShapeNetObject(4, 600, 13);
    const std::string xyz = tempPath("conv.xyz");
    const std::string ply = tempPath("conv.ply");
    const std::string fcpc1 = tempPath("conv1.fcpc");
    const std::string fcpc2 = tempPath("conv2.fcpc");
    ASSERT_TRUE(data::saveXyz(original, xyz));
    ASSERT_TRUE(data::savePly(original, ply));

    core::ThreadPool pool(3);
    ASSERT_TRUE(convertXyzToFcpc(xyz, fcpc1, &pool));
    ASSERT_TRUE(convertPlyToFcpc(ply, fcpc2, &pool));

    // The converted container reproduces the PARSED cloud exactly
    // (text roundtrips lose float bits; the container must not lose
    // any more).
    PointCloud parsed;
    ASSERT_TRUE(data::loadXyz(parsed, xyz));
    FcpcReader reader;
    ASSERT_EQ(reader.open(fcpc1), FcpcStatus::Ok);
    PointCloud loaded;
    ASSERT_EQ(reader.readBlock(0, loaded), FcpcStatus::Ok);
    expectCloudsBitIdentical(parsed, loaded);

    PointCloud parsed_ply;
    ASSERT_TRUE(data::loadPly(parsed_ply, ply));
    FcpcReader reader2;
    ASSERT_EQ(reader2.open(fcpc2), FcpcStatus::Ok);
    PointCloud loaded2;
    ASSERT_EQ(reader2.readBlock(0, loaded2), FcpcStatus::Ok);
    expectCloudsBitIdentical(parsed_ply, loaded2);

    for (const std::string &p : {xyz, ply, fcpc1, fcpc2})
        std::remove(p.c_str());
}

void
expectResultsIdentical(const serve::RequestOutcome &a,
                       const serve::RequestOutcome &b)
{
    ASSERT_EQ(a.state, serve::RequestState::Done);
    ASSERT_EQ(b.state, serve::RequestState::Done);
    EXPECT_EQ(a.result.sampled.indices, b.result.sampled.indices);
    EXPECT_EQ(a.result.sampled.positions, b.result.sampled.positions);
    EXPECT_EQ(a.result.sampled.leaf_offsets,
              b.result.sampled.leaf_offsets);
    EXPECT_EQ(a.result.grouped.indices, b.result.grouped.indices);
    EXPECT_EQ(a.result.grouped.counts, b.result.grouped.counts);
    EXPECT_EQ(a.result.gathered.values, b.result.gathered.values);
    EXPECT_EQ(a.result.num_blocks, b.result.num_blocks);
}

TEST(StorageIngest, PrefetchedServingMatchesPreloadedAcrossShards)
{
    // The acceptance criterion: serving from prefetched storage is
    // byte-identical to serving preloaded in-memory clouds, at shard
    // counts 1, 2, and 4. Every block runs at Priority::Batch on the
    // shard its stored placement key hashes to.
    std::vector<PointCloud> clouds;
    for (std::uint64_t seed = 60; seed < 66; ++seed)
        clouds.push_back(data::makeS3disScene(1500, seed));
    const std::string path = tempPath("serve.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));

    BatchRequest request; // default sample/group/gather pipeline

    for (unsigned shards : {1u, 2u, 4u}) {
        serve::ServeOptions options;
        options.num_shards = shards;
        options.pipeline.num_threads = 2;
        serve::AsyncPipeline pipeline(options);

        // Reference: preloaded in-memory clouds.
        std::vector<serve::RequestOutcome> reference;
        for (const PointCloud &cloud : clouds) {
            const serve::Ticket ticket =
                pipeline.submit(cloud, request);
            reference.push_back(pipeline.wait(ticket));
        }

        auto reader = std::make_shared<FcpcReader>();
        ASSERT_EQ(reader->open(path), FcpcStatus::Ok);
        serve::StorageIngestor ingestor(pipeline, reader);
        const std::vector<serve::IngestResult> results =
            ingestor.runAll(request);
        ASSERT_EQ(results.size(), clouds.size());
        const core::ShardMap map(shards);
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].storage_status, FcpcStatus::Ok);
            expectResultsIdentical(reference[i], results[i].outcome);
            EXPECT_EQ(results[i].outcome.priority,
                      serve::Priority::Batch);
            EXPECT_EQ(results[i].outcome.shard,
                      map.shardFor(reader->placementKey(i)));
        }
    }
    std::remove(path.c_str());
}

TEST(StorageIngest, DamagedBlockReportedOthersServed)
{
    std::vector<PointCloud> clouds;
    for (int c = 0; c < 3; ++c)
        clouds.push_back(data::makeModelNetObject(c, 300, 80 + c));
    const std::string path = tempPath("damaged.fcpc");
    ASSERT_TRUE(writeFcpc(clouds, path));
    corruptByte(path, sizeof(FcpcFileHeader)); // block 0 coords

    serve::AsyncPipeline pipeline;
    auto reader = std::make_shared<FcpcReader>();
    ASSERT_EQ(reader->open(path), FcpcStatus::Ok);
    serve::StorageIngestor ingestor(pipeline, reader);
    const std::vector<serve::IngestResult> results =
        ingestor.runAll({});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].storage_status, FcpcStatus::BadChecksum);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(results[i].storage_status, FcpcStatus::Ok);
        EXPECT_EQ(results[i].outcome.state,
                  serve::RequestState::Done);
    }
    EXPECT_EQ(pipeline.metrics()
                  .counter("serve.ingest.errors")
                  .value(),
              1u);
    EXPECT_EQ(pipeline.metrics()
                  .counter("serve.ingest.blocks")
                  .value(),
              2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace fc::storage
