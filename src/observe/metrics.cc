/**
 * @file
 * LatencyHistogram bucket math and the registry maps. See metrics.h
 * for the concurrency contract.
 */

#include "observe/metrics.h"

#include <algorithm>
#include <cmath>

namespace sparsetir {
namespace observe {

namespace {

/**
 * Upper bounds in ms, ub[i] = 0.001 * 2^(i/2). Computed once; the
 * last bucket is a catch-all so record() never misses.
 */
const std::array<double, LatencyHistogram::kNumBuckets> &
bucketBounds()
{
    static const std::array<double, LatencyHistogram::kNumBuckets>
        bounds = [] {
            std::array<double, LatencyHistogram::kNumBuckets> b{};
            for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
                b[i] = 0.001 * std::pow(2.0, 0.5 * i);
            }
            return b;
        }();
    return bounds;
}

int
bucketIndex(double ms)
{
    const auto &bounds = bucketBounds();
    auto it =
        std::lower_bound(bounds.begin(), bounds.end(), ms);
    if (it == bounds.end()) {
        return LatencyHistogram::kNumBuckets - 1;
    }
    return static_cast<int>(it - bounds.begin());
}

/** fetch_add for atomic<double> via CAS (C++17 has no native one). */
void
atomicAdd(std::atomic<double> *target, double delta)
{
    double cur = target->load(std::memory_order_relaxed);
    while (!target->compare_exchange_weak(cur, cur + delta,
                                          std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double> *target, double v)
{
    double cur = target->load(std::memory_order_relaxed);
    while (v < cur &&
           !target->compare_exchange_weak(cur, v,
                                          std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> *target, double v)
{
    double cur = target->load(std::memory_order_relaxed);
    while (v > cur &&
           !target->compare_exchange_weak(cur, v,
                                          std::memory_order_relaxed)) {
    }
}

/**
 * Interpolated percentile from a consistent bucket copy: walk to the
 * bucket containing rank q*(count-1), place the rank linearly within
 * the bucket's [lower, upper) bound range.
 */
double
percentileFromBuckets(
    const uint64_t (&buckets)[LatencyHistogram::kNumBuckets],
    uint64_t count, double q)
{
    if (count == 0) {
        return 0.0;
    }
    double rank = q * static_cast<double>(count - 1);
    uint64_t seen = 0;
    for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        uint64_t in_bucket = buckets[i];
        if (in_bucket == 0) {
            continue;
        }
        if (rank < static_cast<double>(seen + in_bucket)) {
            double lower =
                i == 0 ? 0.0 : LatencyHistogram::bucketUpperMs(i - 1);
            double upper = LatencyHistogram::bucketUpperMs(i);
            double frac = (rank - static_cast<double>(seen)) /
                          static_cast<double>(in_bucket);
            return lower + (upper - lower) * frac;
        }
        seen += in_bucket;
    }
    return LatencyHistogram::bucketUpperMs(
        LatencyHistogram::kNumBuckets - 1);
}

} // namespace

double
LatencyHistogram::bucketUpperMs(int i)
{
    return bucketBounds()[static_cast<size_t>(i)];
}

void
LatencyHistogram::record(double ms)
{
    if (!(ms >= 0.0)) { // negative or NaN
        ms = 0.0;
    }
    buckets_[bucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
    atomicAdd(&sum_, ms);
    // First sample seeds min exactly; count_ is bumped last so a
    // racing snapshot never sees count > 0 with a zero-init min.
    if (count_.load(std::memory_order_relaxed) == 0) {
        double expected = 0.0;
        min_.compare_exchange_strong(expected, ms,
                                     std::memory_order_relaxed);
    }
    atomicMin(&min_, ms);
    atomicMax(&max_, ms);
    count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot
LatencyHistogram::snapshot() const
{
    uint64_t buckets[kNumBuckets];
    uint64_t count = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        count += buckets[i];
    }
    HistogramSnapshot snap;
    snap.count = count;
    snap.sumMs = sum_.load(std::memory_order_relaxed);
    snap.minMs = min_.load(std::memory_order_relaxed);
    snap.maxMs = max_.load(std::memory_order_relaxed);
    auto clamp = [&](double v) {
        return std::min(std::max(v, snap.minMs), snap.maxMs);
    };
    snap.p50Ms = clamp(percentileFromBuckets(buckets, count, 0.50));
    snap.p95Ms = clamp(percentileFromBuckets(buckets, count, 0.95));
    snap.p99Ms = clamp(percentileFromBuckets(buckets, count, 0.99));
    return snap;
}

Counter *
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot) {
        slot = std::make_unique<Counter>();
    }
    return slot.get();
}

LatencyHistogram *
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot) {
        slot = std::make_unique<LatencyHistogram>();
    }
    return slot.get();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &entry : counters_) {
        snap.counters[entry.first] = entry.second->value();
    }
    for (const auto &entry : histograms_) {
        snap.histograms[entry.first] = entry.second->snapshot();
    }
    return snap;
}

} // namespace observe
} // namespace sparsetir
