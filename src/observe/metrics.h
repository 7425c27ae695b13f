/**
 * @file
 * Named counters and latency histograms: the metrics half of the
 * observability layer.
 *
 * A MetricsRegistry maps stable names ("engine.requests",
 * "engine.warm_dispatch_ms.spmm_hyb", "native.compiles") to
 * lock-free instruments. Registration takes a lock once per name;
 * the returned pointers stay valid for the registry's lifetime, so
 * hot paths record through a cached pointer with a relaxed atomic
 * add — no lock, no allocation. The legacy stats structs
 * (EngineStats, CacheStats) are reconstructed as views over these
 * instruments; see engine.h / compile_cache.h.
 *
 * Naming scheme: `<subsystem>.<what>[_<unit>][.<detail>]`, e.g.
 * `cache.evictions` (counter), `engine.warm_dispatch_ms.spmm_csr`
 * (histogram, milliseconds). Counters count events; histograms carry
 * a `_ms` unit suffix before any detail segment.
 */

#ifndef SPARSETIR_OBSERVE_METRICS_H_
#define SPARSETIR_OBSERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sparsetir {
namespace observe {

/** Monotonic event counter; add/read are relaxed atomics. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Point-in-time view of one LatencyHistogram. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sumMs = 0.0;
    double minMs = 0.0;
    double maxMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Fixed-bucket latency histogram in milliseconds.
 *
 * 64 log-spaced buckets with upper bounds 0.001ms * 2^(i/2): the
 * sqrt(2) ratio bounds any interpolated percentile's relative error
 * by ~41% while covering 1 microsecond to ~50 minutes. record() is
 * three relaxed atomic ops (bucket, count, CAS-looped sum) plus two
 * min/max CAS loops — safe from any thread, never allocating.
 * Percentiles interpolate linearly inside the hit bucket and clamp
 * to the exactly-tracked min/max, so a degenerate histogram (every
 * sample equal) reports that sample exactly.
 */
class LatencyHistogram
{
  public:
    static constexpr int kNumBuckets = 64;

    /** Record one latency sample; negative values clamp to zero. */
    void record(double ms);

    /**
     * Consistent-enough view under concurrent record(): each field
     * is individually atomic, the set is not (a racing record may
     * appear in count but not yet in a bucket).
     */
    HistogramSnapshot snapshot() const;

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    sumMs() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Inclusive upper bound of bucket `i` in milliseconds. */
    static double bucketUpperMs(int i);

  private:
    std::atomic<uint64_t> buckets_[kNumBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/** Everything a registry (plus owner-provided gauges) knows. */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;
    /** Instantaneous values published by the owner (e.g. scratch
     *  bytes currently leased) — not registry instruments. */
    std::map<std::string, int64_t> gauges;
};

/**
 * Name -> instrument map. counter()/histogram() intern the name on
 * first use and thereafter return the same pointer, which remains
 * valid until the registry is destroyed — cache it across calls on
 * hot paths. Instruments are never removed.
 *
 * Engines own private registries so concurrent engines never alias
 * each other's counts.
 */
class MetricsRegistry
{
  public:
    Counter *counter(const std::string &name);
    LatencyHistogram *histogram(const std::string &name);

    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>>
        histograms_;
};

} // namespace observe
} // namespace sparsetir

#endif // SPARSETIR_OBSERVE_METRICS_H_
