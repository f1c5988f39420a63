#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace fc::core::metrics {

void
setSampling(bool enabled)
{
    detail::g_sampling.store(enabled, std::memory_order_relaxed);
}

namespace detail {

unsigned
threadStripe()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned stripe =
        next.fetch_add(1, std::memory_order_relaxed);
    return stripe;
}

} // namespace detail

std::uint64_t
Histogram::bucketUpperBound(unsigned index)
{
    fc_assert(index < kBuckets, "histogram bucket %u out of range",
              index);
    if (index < (1u << kSubBits))
        return index; // exact small-value buckets
    const unsigned rel = index - (1u << kSubBits);
    const unsigned k = (rel >> kSubBits) + kSubBits;
    const unsigned sub = rel & ((1u << kSubBits) - 1);
    if (k >= 63 && sub == (1u << kSubBits) - 1)
        return std::numeric_limits<std::uint64_t>::max();
    // Bucket covers [2^k + sub*2^(k-kSubBits), next boundary); the
    // upper bound is one below the next boundary.
    const std::uint64_t base = 1ull << k;
    const std::uint64_t step = 1ull << (k - kSubBits);
    return base + step * (sub + 1) - 1;
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (const auto &bucket : buckets_)
        total += bucket.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
Histogram::percentile(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t total = count();
    if (total == 0)
        return 0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total))));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i].load(std::memory_order_relaxed);
        if (seen >= rank)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kBuckets - 1); // unreachable
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

namespace {

/** Find-or-create in a NameMap; @p mutex held by the caller. */
template <typename T, typename Map>
T &
findOrCreate(Map &map, std::string_view name)
{
    const auto it = map.find(name);
    if (it != map.end())
        return *it->second;
    return *map.emplace(std::string(name), std::make_unique<T>())
                .first->second;
}

/** A name must hold exactly one instrument kind. */
template <typename Map>
void
assertUnused(const Map &map, std::string_view name, const char *kind)
{
    fc_assert(map.find(name) == map.end(),
              "metric '%.*s' already registered as a %s",
              static_cast<int>(name.size()), name.data(), kind);
}

void
appendJsonKey(std::string &out, const std::string &name, bool &first)
{
    if (!first)
        out += ',';
    first = false;
    out += '"';
    // Instrument names are library-chosen identifiers (letters,
    // digits, ., _, {}=,) — nothing needing JSON escaping beyond the
    // quote/backslash check kept here for safety.
    for (const char c : name) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += "\":";
}

} // namespace

Registry::Registry()
    : serial_([] {
          static std::atomic<std::uint64_t> next{1};
          return next.fetch_add(1, std::memory_order_relaxed);
      }())
{
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    assertUnused(gauges_, name, "gauge");
    assertUnused(histograms_, name, "histogram");
    return findOrCreate<Counter>(counters_, name);
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    assertUnused(counters_, name, "counter");
    assertUnused(histograms_, name, "histogram");
    return findOrCreate<Gauge>(gauges_, name);
}

Histogram &
Registry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    assertUnused(counters_, name, "counter");
    assertUnused(gauges_, name, "gauge");
    return findOrCreate<Histogram>(histograms_, name);
}

void
Registry::renderText(std::string &out) const
{
    // One pass per kind keeps each kind's lines sorted by name; the
    // kinds themselves are grouped counter -> gauge -> histogram,
    // which is part of the stable format contract.
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[192];
    for (const auto &[name, counter] : counters_) {
        std::snprintf(buf, sizeof buf, " counter %llu\n",
                      static_cast<unsigned long long>(counter->value()));
        out += name;
        out += buf;
    }
    for (const auto &[name, gauge] : gauges_) {
        std::snprintf(buf, sizeof buf, " gauge %lld\n",
                      static_cast<long long>(gauge->value()));
        out += name;
        out += buf;
    }
    for (const auto &[name, hist] : histograms_) {
        std::snprintf(
            buf, sizeof buf,
            " histogram count=%llu sum=%llu p50=%llu p95=%llu "
            "p99=%llu max=%llu\n",
            static_cast<unsigned long long>(hist->count()),
            static_cast<unsigned long long>(hist->sum()),
            static_cast<unsigned long long>(hist->percentile(0.50)),
            static_cast<unsigned long long>(hist->percentile(0.95)),
            static_cast<unsigned long long>(hist->percentile(0.99)),
            static_cast<unsigned long long>(hist->max()));
        out += name;
        out += buf;
    }
}

void
Registry::renderJson(std::string &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[192];
    out += "{\"counters\":{";
    bool first = true;
    for (const auto &[name, counter] : counters_) {
        appendJsonKey(out, name, first);
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(counter->value()));
        out += buf;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &[name, gauge] : gauges_) {
        appendJsonKey(out, name, first);
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(gauge->value()));
        out += buf;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : histograms_) {
        appendJsonKey(out, name, first);
        std::snprintf(
            buf, sizeof buf,
            "{\"count\":%llu,\"sum\":%llu,\"p50\":%llu,\"p95\":%llu,"
            "\"p99\":%llu,\"max\":%llu}",
            static_cast<unsigned long long>(hist->count()),
            static_cast<unsigned long long>(hist->sum()),
            static_cast<unsigned long long>(hist->percentile(0.50)),
            static_cast<unsigned long long>(hist->percentile(0.95)),
            static_cast<unsigned long long>(hist->percentile(0.99)),
            static_cast<unsigned long long>(hist->max()));
        out += buf;
    }
    out += "}}";
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &kv : counters_)
        kv.second->reset();
    for (const auto &kv : gauges_)
        kv.second->reset();
    for (const auto &kv : histograms_)
        kv.second->reset();
}

} // namespace fc::core::metrics
