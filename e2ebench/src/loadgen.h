/**
 * @file
 * The load generator: server set-up with warm-up, and one measured
 * phase of a workload through the public serving API (closed loop for
 * semseg-interactive and lidar-pointops; ingestion plus an open-loop
 * interactive stream for ingest-mixed).
 */

#ifndef FC_E2EBENCH_LOADGEN_H
#define FC_E2EBENCH_LOADGEN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "e2e_util.h"
#include "nn/network.h"
#include "serve/async_pipeline.h"
#include "serve/ingest.h"
#include "storage/fcpc_reader.h"
#include "workloads.h"

namespace e2e {

/** Everything a warm server holds. Members die in reverse order: the
 *  ingestor before the pipeline it feeds, the pipeline (which drains
 *  its requests) before the network they borrow. */
struct Server
{
    std::unique_ptr<fc::nn::Network> network;
    std::unique_ptr<fc::serve::AsyncPipeline> pipeline;
    std::shared_ptr<fc::storage::FcpcReader> reader;
    std::unique_ptr<fc::serve::StorageIngestor> ingestor;
    double open_ms = 0.0; ///< FcpcReader::open wall time
};

/**
 * Construct the network, pipeline, reader and ingestor of @p config
 * and send warm-up requests until workspacesCreated() stops growing.
 * Throws std::runtime_error when the file cannot be opened or a
 * warm-up request does not finish Done.
 */
std::unique_ptr<Server> setUp(const Config &config, const Inputs &inputs);

/** One served request's scheduler milestones. */
struct Served
{
    double wait_ms = 0.0;    ///< started - submitted
    double service_ms = 0.0; ///< finished - started
    fc::serve::Priority priority = fc::serve::Priority::Interactive;
    bool spilled = false;
};

/** Everything one phase measured. Sample times are nanoseconds after
 *  the phase started. */
struct Phase
{
    /** Latency (ms) of each Done request of the timed stream (all
     *  requests in a closed loop, the interactive stream in the open
     *  loop), stamped with when it completed. */
    std::vector<Sample> latency;

    /** Value 1 per Done request of any stream (throughput_rps). */
    std::vector<Sample> done;

    /** Input points of each Done request that points_per_s counts
     *  (every request; ingested blocks only on ingest-mixed). */
    std::vector<Sample> points;

    std::vector<double> lag_ms; ///< open-loop lateness per send
    std::vector<Served> served;     ///< every Done request
    std::size_t attempted = 0;
    std::size_t completed = 0; ///< Done, all streams
    std::size_t rejected = 0;
    std::size_t expired = 0;
    std::size_t cancelled = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    std::size_t checked = 0;
    std::int64_t span_ns = 0; ///< nominal phase length
    double wall_s = 0.0;      ///< phase start to last completion
    double cpu_s = 0.0;       ///< process CPU time
    std::uint64_t allocs = 0; ///< heap allocations (alloc hook)

    std::size_t
    errors() const
    {
        return rejected + expired + cancelled + failed + mismatches;
    }

    void merge(const Phase &other);
};

/** What a phase serves and what its outputs must equal. */
struct Target
{
    const Config &config;
    std::uint64_t seed;
    const Inputs &inputs;
    const std::vector<fc::BatchResult> &refs;       ///< per cloud
    const std::vector<fc::BatchResult> &block_refs; ///< per block
    Server &server;
};

/**
 * Drive @p target for @p seconds. With @p logs non-null every client
 * thread records spans around its serving calls into its own log,
 * appended to @p logs.
 */
Phase runPhase(const Target &target, double seconds,
               std::vector<std::unique_ptr<SpanLog>> *logs);

} // namespace e2e

#endif // FC_E2EBENCH_LOADGEN_H
