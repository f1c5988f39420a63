/**
 * @file
 * Lock-cheap serving metrics: counters, gauges, and log-scale latency
 * histograms behind a name-keyed registry.
 *
 * Design constraints, in order:
 *
 *   1. Hot-path mutation must be cheap enough to leave on in
 *      production: a Counter::add is one relaxed fetch_add on a
 *      cache-line-padded stripe picked by thread (no sharing between
 *      steadily-running worker threads), a Histogram::record is one
 *      relaxed fetch_add on a bucket plus a sum update. No locks, no
 *      allocation, no stores to shared hot lines.
 *   2. Zero allocations after registration: every instrument is
 *      fixed-size storage created once by Registry::counter/gauge/
 *      histogram. Components register during construction, keep the
 *      returned pointer, and mutate through it; repeated lookups by
 *      name are transparent (string_view, no temporary std::string).
 *   3. Near-zero cost when sampling is off: every mutation first
 *      checks one global relaxed atomic flag (setSampling). With the
 *      flag clear the instrument body is a load + predicted branch.
 *   4. Reads are rare and may be slow: value() sums stripes,
 *      percentile() walks buckets, renderText/renderJson serialize
 *      the whole registry under its registration mutex. Readers see
 *      each instrument atomically enough for telemetry (counts may be
 *      mid-update across instruments; no torn single values).
 *
 * Histogram buckets are fixed log-scale with 4 sub-buckets per octave
 * (value resolution ~25%, enough for p50/p95/p99 of latency tails):
 * values 0..2^kSubBits map exactly, beyond that bucket
 * ((k - kSubBits) << kSubBits) + sub covers
 * [2^k + sub*2^(k-kSubBits), 2^k + (sub+1)*2^(k-kSubBits)) for
 * k = floor(log2 v). 252 buckets span the full uint64 range, so one
 * histogram is ~2 KB and a per-(shard x class) family stays
 * cache-resident.
 *
 * The registry renders a stable line-oriented text format (one line
 * per instrument, sorted by name) designed to be served verbatim as a
 * /stats endpoint, plus a machine-readable JSON snapshot:
 *
 *   serve.pops{shard=0,class=interactive} counter 42
 *   serve.queue_depth{shard=0,class=batch} gauge 3
 *   serve.wait_us{shard=0,class=batch} histogram count=7 sum=812 \
 *       p50=96 p95=255 p99=255 max=241
 *
 * Label syntax inside the name is opaque to the registry — it sorts
 * and prints names as flat strings; the {k=v,...} convention is just
 * that, a convention shared by the instrumented layers.
 */

#ifndef FC_CORE_METRICS_H
#define FC_CORE_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace fc::core::metrics {

/** Global sampling switch (see samplingEnabled below): false turns
 *  every instrument mutation into a relaxed load + branch (reads keep
 *  working on the frozen values). Defaults to on. */
void setSampling(bool enabled);

namespace detail {

/** Global flag behind samplingEnabled(); inline so the hot-path check
 *  inlines into instrument bodies. */
inline std::atomic<bool> g_sampling{true};

/** Small dense per-thread index for stripe selection: assigned on
 *  first use per thread, so a fixed worker set occupies distinct
 *  stripes (modulo the stripe count) instead of hashing collisions. */
unsigned threadStripe();

} // namespace detail

/** True while instruments accept mutations (the global switch). */
inline bool
samplingEnabled()
{
    return detail::g_sampling.load(std::memory_order_relaxed);
}

/**
 * Monotonic counter, striped across cache-line-padded slots so
 * concurrent writers on different threads do not share a line.
 * value() aggregates on read.
 */
class Counter
{
  public:
    static constexpr unsigned kStripes = 8;

    void
    add(std::uint64_t delta = 1)
    {
        if (!samplingEnabled())
            return;
        stripes_[detail::threadStripe() & (kStripes - 1)].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Stripe &stripe : stripes_)
            total += stripe.value.load(std::memory_order_relaxed);
        return total;
    }

    void
    reset()
    {
        for (Stripe &stripe : stripes_)
            stripe.value.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Stripe
    {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<Stripe, kStripes> stripes_{};
};

/** Last-writer-wins instantaneous value (queue depths, config). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        if (!samplingEnabled())
            return;
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        if (!samplingEnabled())
            return;
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Ungated set, for configuration gauges written once at
     *  registration time: the active config must surface in /stats
     *  even when a deployment starts with sampling off. */
    void
    forceSet(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket log-scale histogram (see file comment for the bucket
 * scheme). Values are plain uint64 — the instrumented layers record
 * microseconds, but the histogram itself is unit-agnostic.
 */
class Histogram
{
  public:
    /** Sub-buckets per octave = 1 << kSubBits (resolution ~25%). */
    static constexpr unsigned kSubBits = 2;

    /** Bucket count covering all of uint64: exact buckets 0..2^kSubBits
     *  plus (64 - kSubBits) octaves of 2^kSubBits sub-buckets. */
    static constexpr unsigned kBuckets =
        (1u << kSubBits) + ((64 - kSubBits) << kSubBits);

    /** Bucket holding @p v; monotonic in v. */
    static unsigned
    bucketIndex(std::uint64_t v)
    {
        if (v < (1ull << kSubBits))
            return static_cast<unsigned>(v);
        const unsigned k = std::bit_width(v) - 1; // floor(log2 v)
        const unsigned sub = static_cast<unsigned>(
            (v >> (k - kSubBits)) & ((1u << kSubBits) - 1));
        return ((k - kSubBits) << kSubBits) + sub + (1u << kSubBits);
    }

    /** Largest value mapping to bucket @p index (the value reported
     *  for percentiles landing in it). */
    static std::uint64_t bucketUpperBound(unsigned index);

    void
    record(std::uint64_t v)
    {
        if (!samplingEnabled())
            return;
        buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        // Relaxed CAS max: losers retry; the loop is contention-bounded
        // because a failed CAS means someone else raised the bar.
        std::uint64_t seen = max_.load(std::memory_order_relaxed);
        while (v > seen && !max_.compare_exchange_weak(
                               seen, v, std::memory_order_relaxed))
            ;
    }

    std::uint64_t count() const;
    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /**
     * Value at quantile @p q in [0, 1]: the upper bound of the bucket
     * containing the ceil(q * count)-th recorded value (0 when
     * empty). Accurate to the ~25% bucket resolution, which is what a
     * latency SLO check needs; exact ranks would require storing
     * samples.
     */
    std::uint64_t percentile(double q) const;

    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
};

/**
 * Name-keyed instrument registry. Registration (and re-lookup by
 * name) takes a mutex and may allocate; mutation through the returned
 * pointers is lock- and allocation-free. Instruments live until the
 * registry dies — there is no unregistration, so a component may
 * cache pointers for its own lifetime when it owns (or outlives) the
 * registry.
 */
class Registry
{
  public:
    Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Nonzero identity no other registry in the process ever had,
     *  taken from a global counter at construction. Key caches of
     *  instrument pointers on it, not on the address: a registry
     *  built where a destroyed one lived gets a new serial. */
    std::uint64_t serial() const { return serial_; }

    /** Find-or-create. The name (including any {label=value} suffix)
     *  is the identity; requesting an existing name returns the same
     *  instrument. One name holds one instrument kind — re-requesting
     *  it as a different kind is a logic error (asserted). */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name);

    /**
     * Append the stable line-oriented text format (one line per
     * instrument, sorted by name; see file comment). A socket
     * frontend can serve the result verbatim as /stats.
     */
    void renderText(std::string &out) const;

    /** Append a machine-readable JSON snapshot:
     *  {"counters":{...},"gauges":{...},"histograms":{name:
     *  {"count":..,"sum":..,"p50":..,"p95":..,"p99":..,"max":..}}}. */
    void renderJson(std::string &out) const;

    /** Zero every instrument (bench trials, test isolation).
     *  Registration survives — pointers stay valid. */
    void reset();

  private:
    /** Transparent less<> so lookups take string_view without
     *  materializing a std::string (no allocation on re-lookup). */
    template <typename T>
    using NameMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

    const std::uint64_t serial_;
    mutable std::mutex mutex_;
    NameMap<Counter> counters_;
    NameMap<Gauge> gauges_;
    NameMap<Histogram> histograms_;
};

} // namespace fc::core::metrics

#endif // FC_CORE_METRICS_H
