/**
 * @file
 * The traced replay: serve internals cannot be entered from outside,
 * so the per-layer numbers come from replaying a workload's generated
 * inputs through each layer's public functions (the same stage
 * sequence the serving path runs, on a pool of the serving shard's
 * size), with a span around every call.
 */

#ifndef FC_E2EBENCH_REPLAY_H
#define FC_E2EBENCH_REPLAY_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2e_util.h"
#include "loadgen.h"
#include "workloads.h"

namespace e2e {

/** Request id of the LinearRelu shape sweep's spans. */
inline constexpr std::uint64_t kMlpSweepRequest = ~std::uint64_t{0};

struct ReplayResult
{
    /** Spans of the recorded pass (a warm-up pass runs first). */
    std::unique_ptr<SpanLog> log;

    /** Work counters of the recorded pass, over `requests` inputs. */
    Counters counters;
    std::size_t requests = 0;

    /** Replayed results that differ from the sequential reference. */
    std::size_t mismatches = 0;

    /** Mean nn.stage_us per Network::run, in ms, by stage label. */
    std::map<std::string, double> nn_stage_ms;

    /** LinearRelu::forward throughput over the model's layer shapes
     *  (0 without a network). */
    double mlp_gmacs_per_s = 0.0;
};

/** Replay every input of @p config once warm and once recorded. */
ReplayResult replay(const Config &config, const Inputs &inputs,
                    const Server &server,
                    const std::vector<fc::BatchResult> &refs,
                    const std::vector<fc::BatchResult> &block_refs);

} // namespace e2e

#endif // FC_E2EBENCH_REPLAY_H
