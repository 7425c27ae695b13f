#include "engine/compile_cache.h"

#include <chrono>

#include "observe/trace.h"
#include "support/logging.h"

namespace sparsetir {
namespace engine {

void
Artifact::scalar(const std::string &name, int64_t value)
{
    bindings.scalars[name] = value;
    facts.scalar(name, value);
}

void
Artifact::int32Array(const std::string &name,
                     const std::vector<int32_t> &values)
{
    arrays_.push_back(runtime::NDArray::fromInt32(values));
    bindings.arrays[name] = &arrays_.back();
    facts.int32Array(name, values);
}

void
Artifact::gather(const std::string &param, int source,
                 std::vector<int32_t> source_pos)
{
    bindings.arrays[param] = nullptr;
    gathers.push_back(ValueGather{param, source, std::move(source_pos)});
}

CompileCache::CompileCache(size_t capacity,
                           observe::MetricsRegistry *metrics)
    : capacity_(capacity)
{
    USER_CHECK(capacity > 0) << "compile cache capacity must be >= 1";
    if (metrics == nullptr) {
        ownedMetrics_ = std::make_unique<observe::MetricsRegistry>();
        metrics = ownedMetrics_.get();
    }
    hits_ = metrics->counter("cache.hits");
    misses_ = metrics->counter("cache.misses");
    evictions_ = metrics->counter("cache.evictions");
    buildMs_ = metrics->histogram("cache.build_ms");
    verifiedKernels_ = metrics->counter("cache.verified_kernels");
    verifyFailures_ = metrics->counter("cache.verify_failures");
    verifyMs_ = metrics->histogram("cache.verify_ms");
}

void
CompileCache::touch(const CacheKey &key, Entry &entry)
{
    lru_.erase(entry.lruPos);
    lru_.push_front(key);
    entry.lruPos = lru_.begin();
}

std::shared_ptr<Artifact>
CompileCache::getOrBuild(
    const CacheKey &key,
    const std::function<std::shared_ptr<Artifact>()> &builder,
    bool *was_hit)
{
    if (was_hit != nullptr) {
        *was_hit = false;
    }
    {
        SPARSETIR_TRACE_SCOPE1("cache", "cache.lookup", "op",
                               static_cast<int64_t>(key.op));
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            hits_->add(1);
            touch(key, it->second);
            if (was_hit != nullptr) {
                *was_hit = true;
            }
            return it->second.value;
        }
        misses_->add(1);
    }

    // Build outside the lock: compilation dominates lookup cost and
    // must not block hits on other keys.
    auto start = std::chrono::steady_clock::now();
    std::shared_ptr<Artifact> built;
    {
        SPARSETIR_TRACE_SCOPE1("cache", "cache.build", "op",
                               static_cast<int64_t>(key.op));
        built = builder();
    }
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ICHECK(built != nullptr) << "cache builder returned null artifact";
    buildMs_->record(elapsed_ms);
    // The verdict rides on the artifact (paid once, at build); the
    // registry keeps the aggregate verify cost and outcome counters.
    verifyMs_->record(built->verify.verifyMs);
    verifiedKernels_->add(static_cast<uint64_t>(built->verify.kernels));
    if (!built->verify.ok) {
        verifyFailures_->add(1);
    }

    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        // Lost a build race; keep the incumbent so every caller that
        // already holds a reference agrees on one artifact.
        touch(key, it->second);
        return it->second.value;
    }
    while (entries_.size() >= capacity_) {
        const CacheKey &victim = lru_.back();
        entries_.erase(victim);
        lru_.pop_back();
        evictions_->add(1);
    }
    lru_.push_front(key);
    entries_[key] = Entry{built, lru_.begin()};
    return built;
}

CacheStats
CompileCache::stats() const
{
    CacheStats stats;
    stats.hits = hits_->value();
    stats.misses = misses_->value();
    stats.evictions = evictions_->value();
    stats.compileMs = buildMs_->sumMs();
    stats.verifiedKernels = verifiedKernels_->value();
    stats.verifyFailures = verifyFailures_->value();
    stats.verifyMs = verifyMs_->sumMs();
    return stats;
}

} // namespace engine
} // namespace sparsetir
