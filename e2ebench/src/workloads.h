/**
 * @file
 * The benchmark's three workloads: their fixed shapes, seeded input
 * generation, the sequential reference every served output is
 * compared with, and the exact work counters gated by run.py.
 */

#ifndef FC_E2EBENCH_WORKLOADS_H
#define FC_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "dataset/point_cloud.h"

namespace e2e {

enum class Kind
{
    Semseg, ///< closed loop, one network request per serving thread
    Lidar,  ///< closed loop, one point-op request per serving thread
    Ingest, ///< .fcpc ingestion beside an open-loop interactive stream
};

/** Fixed shape of one workload; only the seed varies the inputs. */
struct Config
{
    Kind kind = Kind::Semseg;
    const char *name = "";
    std::size_t cloud_points = 0; ///< per interactive cloud
    std::size_t num_clouds = 0;   ///< distinct interactive clouds
    std::size_t block_points = 0; ///< per .fcpc block (Ingest)
    std::size_t num_blocks = 0;   ///< blocks in the .fcpc (Ingest)
    unsigned shards = 1;
    double rate_rps = 0.0; ///< open-loop interactive rate (Ingest)
};

/** Serving threads in total: nproc, capped at 4 so every host runs
 *  the same workload shape. */
unsigned servingThreads();

/** The named workload; false when the name is unknown. */
bool configFor(const std::string &name, Config &out);

/** Names of every workload, for the usage message. */
const char *workloadNames();

/** Generated inputs of one (workload, seed). */
struct Inputs
{
    /** Clouds of the interactive (or closed-loop) stream. */
    std::vector<std::shared_ptr<const fc::data::PointCloud>> clouds;

    /** Ingest blocks, in file order (Ingest only). */
    std::vector<fc::data::PointCloud> blocks;

    /** Where the blocks were written as one .fcpc (Ingest only). */
    std::string fcpc_path;
};

/**
 * Build the inputs of @p config from @p seed alone. With a non-empty
 * @p work_dir the ingest blocks are also written to
 * `<work_dir>/ingest-<seed>.fcpc`; returns false if that write fails.
 */
bool makeInputs(const Config &config, std::uint64_t seed,
                const std::string &work_dir, Inputs &out);

/** The request every cloud of @p config is served with; @p network
 *  is borrowed (null for point-op workloads). */
fc::BatchRequest requestFor(const Config &config,
                            const fc::nn::Network *network);

/** A fresh Table I network for @p config, or null without one. */
std::unique_ptr<fc::nn::Network> makeNetwork(const Config &config);

/**
 * Sequential reference: a one-thread FractalCloudPipeline for the
 * point ops and a pool-less Network::run for the inference.
 */
fc::BatchResult referenceFor(const fc::data::PointCloud &cloud,
                             const fc::BatchRequest &request);

/** References of many clouds, computed side by side on up to
 *  servingThreads() threads (each reference itself sequential). */
std::vector<fc::BatchResult>
referencesFor(const std::vector<const fc::data::PointCloud *> &clouds,
              const fc::BatchRequest &request);

/** Byte equality of every field of two results, stats included. */
bool sameResult(const fc::BatchResult &a, const fc::BatchResult &b);

/** Hardware-independent work counters, summed over results. */
struct Counters
{
    std::uint64_t elements_traversed = 0;
    std::uint64_t num_blocks = 0;
    std::uint64_t distance_computations = 0;
    std::uint64_t bytes_gathered = 0;
    std::uint64_t total_macs = 0;
    std::uint64_t sa_mlp_rows = 0;

    void add(const fc::BatchResult &result);

    bool operator==(const Counters &) const = default;

    /** Print `counter <workload> <seed> <name> <value>` lines. */
    void print(const char *workload, std::uint64_t seed) const;
};

/** 64-bit splitmix finalizer: derives per-cloud seeds. */
std::uint64_t splitmix(std::uint64_t x);

} // namespace e2e

#endif // FC_E2EBENCH_WORKLOADS_H
