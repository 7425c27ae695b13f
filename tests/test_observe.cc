/**
 * @file
 * Observability layer: the disabled-mode zero-span guarantee (the
 * contract the untraced hot path is built on, asserted both on bare
 * macros and through a full untraced Engine session), span nesting
 * and worker-thread attribution under parallelFor, latency-histogram
 * percentiles against a sorted-vector oracle, Chrome-trace JSON
 * well-formedness, and one compute span per fused task-graph unit.
 */

#include <gtest/gtest.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/thread_pool.h"
#include "graph/generator.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "test_util.h"

namespace sparsetir {
namespace {

using engine::Engine;
using engine::EngineOptions;
using format::Csr;
using observe::TraceRecorder;
using runtime::NDArray;
using testutil::randomVector;

// With SPARSETIR_NATIVE=1 every engine here may serve natively: its
// .so files go to a per-process directory removed at exit.
[[maybe_unused]] const bool kNativeCacheIsolated =
    testutil::isolateNativeCacheDir("/tmp/sparsetir-observe-native-");

/** Leave the global recorder the way an untraced process has it. */
void
quiesceRecorder()
{
    TraceRecorder::global().setEnabled(false);
    TraceRecorder::global().clear();
}

// ---------------------------------------------------------------------
// Disabled mode: zero spans, zero thread registrations
// ---------------------------------------------------------------------

TEST(Observe, DisabledRecorderRecordsNothing)
{
    quiesceRecorder();
    {
        SPARSETIR_TRACE_SCOPE("test", "outer");
        SPARSETIR_TRACE_SCOPE1("test", "one", "k", 1);
        SPARSETIR_TRACE_SCOPE2("test", "two", "k", 1, "r", 2);
        observe::TraceScope manual("test", "manual");
        manual.end();
    }
    EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);
    EXPECT_EQ(TraceRecorder::global().threadCount(), 0u)
        << "a disabled span must not create a thread buffer";
    EXPECT_TRUE(TraceRecorder::global().collect().empty());
}

// The ctest-level form of the same guarantee: a default (untraced)
// build running real engine traffic records zero spans — the
// instrumentation in dispatch/compile/executor paths must all be
// behind the enabled() check.
TEST(Observe, UntracedEngineSessionRecordsZeroSpans)
{
    unsetenv("SPARSETIR_TRACE");
    quiesceRecorder();

    Csr a = graph::powerLawGraph(120, 1000, 1.8, 3);
    int64_t feat = 8;
    EngineOptions options;
    options.numThreads = 4;
    Engine eng(options);  // options.trace defaults to false
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 7));
    NDArray c({a.rows * feat}, ir::DataType::float32());
    eng.spmmCsr(a, feat, &b, &c);
    eng.spmmCsr(a, feat, &b, &c);  // warm
    engine::HybConfig config;
    config.partitions = 2;
    eng.spmmHyb(a, feat, &b, &c, config);
    eng.spmmHyb(a, feat, &b, &c, config);  // warm

    EXPECT_FALSE(TraceRecorder::global().enabled());
    EXPECT_EQ(TraceRecorder::global().eventCount(), 0u);
    EXPECT_EQ(TraceRecorder::global().threadCount(), 0u);
}

// ---------------------------------------------------------------------
// Nesting and thread attribution
// ---------------------------------------------------------------------

TEST(Observe, SpansNestAndCarryWorkerAttribution)
{
    quiesceRecorder();
    TraceRecorder::global().setEnabled(true);
    TraceRecorder::setCurrentThreadName("main-test");

    {
        observe::TraceScope outer("test", "outer");
        engine::ThreadPool pool(4);
        pool.parallelFor(8, [](int64_t i) {
            SPARSETIR_TRACE_SCOPE1("test", "work", "i", i);
        });
    }
    {
        observe::TraceScope parent("test", "parent");
        SPARSETIR_TRACE_SCOPE("test", "child");
    }

    std::vector<observe::CollectedEvent> events =
        TraceRecorder::global().collect();

    const observe::CollectedEvent *outer = nullptr;
    const observe::CollectedEvent *parent = nullptr;
    const observe::CollectedEvent *child = nullptr;
    std::vector<const observe::CollectedEvent *> work;
    for (const auto &e : events) {
        std::string name = e.event.name;
        if (name == "outer") {
            outer = &e;
        } else if (name == "parent") {
            parent = &e;
        } else if (name == "child") {
            child = &e;
        } else if (name == "work") {
            work.push_back(&e);
        }
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(child, nullptr);
    ASSERT_EQ(work.size(), 8u) << "one span per parallelFor index";

    // Every worker span falls inside the enclosing outer span and is
    // attributed to a named pool worker (never the main thread).
    std::set<int> worker_tids;
    std::set<int64_t> indices;
    for (const observe::CollectedEvent *w : work) {
        EXPECT_GE(w->event.startNs, outer->event.startNs);
        EXPECT_LE(w->event.startNs + w->event.durNs,
                  outer->event.startNs + outer->event.durNs);
        EXPECT_EQ(w->threadName.rfind("worker-", 0), 0u)
            << "got thread name " << w->threadName;
        EXPECT_NE(w->tid, outer->tid);
        worker_tids.insert(w->tid);
        ASSERT_STREQ(w->event.arg0Name, "i");
        indices.insert(w->event.arg0);
    }
    EXPECT_LE(worker_tids.size(), 4u);
    EXPECT_EQ(indices.size(), 8u) << "all 8 indices traced distinctly";

    // Same-thread lexical nesting: child inside parent, same tid.
    EXPECT_EQ(child->tid, parent->tid);
    EXPECT_EQ(parent->threadName, "main-test");
    EXPECT_GE(child->event.startNs, parent->event.startNs);
    EXPECT_LE(child->event.startNs + child->event.durNs,
              parent->event.startNs + parent->event.durNs);

    quiesceRecorder();
}

// ---------------------------------------------------------------------
// Histogram percentiles vs a sorted-vector oracle
// ---------------------------------------------------------------------

TEST(Observe, HistogramPercentilesTrackSortedOracle)
{
    observe::LatencyHistogram hist;
    Rng rng(1234);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
        // Latencies spanning ~3 decades, like real dispatch mixes.
        double ms = 0.005 * std::exp(rng.uniformReal() * 7.0);
        samples.push_back(ms);
        hist.record(ms);
    }
    std::sort(samples.begin(), samples.end());

    observe::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 5000u);
    EXPECT_DOUBLE_EQ(snap.minMs, samples.front());
    EXPECT_DOUBLE_EQ(snap.maxMs, samples.back());

    auto oracle = [&](double q) {
        size_t idx = static_cast<size_t>(
            q * static_cast<double>(samples.size() - 1));
        return samples[idx];
    };
    struct Case
    {
        double got;
        double quantile;
        const char *label;
    } cases[] = {{snap.p50Ms, 0.50, "p50"},
                 {snap.p95Ms, 0.95, "p95"},
                 {snap.p99Ms, 0.99, "p99"}};
    for (const Case &c : cases) {
        double want = oracle(c.quantile);
        ASSERT_GT(want, 0.0);
        double ratio = c.got / want;
        // sqrt(2)-spaced buckets bound the in-bucket error; allow one
        // extra bucket of slack for rank interpolation.
        EXPECT_GT(ratio, 0.5) << c.label << ": got " << c.got
                              << " want " << want;
        EXPECT_LT(ratio, 2.0) << c.label << ": got " << c.got
                              << " want " << want;
    }
    EXPECT_LE(snap.p50Ms, snap.p95Ms);
    EXPECT_LE(snap.p95Ms, snap.p99Ms);

    // Constant samples collapse every percentile to the exact value:
    // the snapshot clamps interpolated percentiles to [min, max].
    observe::LatencyHistogram constant;
    for (int i = 0; i < 100; ++i) {
        constant.record(0.25);
    }
    observe::HistogramSnapshot flat = constant.snapshot();
    EXPECT_EQ(flat.count, 100u);
    EXPECT_DOUBLE_EQ(flat.p50Ms, 0.25);
    EXPECT_DOUBLE_EQ(flat.p95Ms, 0.25);
    EXPECT_DOUBLE_EQ(flat.p99Ms, 0.25);
    EXPECT_DOUBLE_EQ(flat.minMs, 0.25);
    EXPECT_DOUBLE_EQ(flat.maxMs, 0.25);
}

// ---------------------------------------------------------------------
// Chrome trace export: well-formed JSON with the expected shape
// ---------------------------------------------------------------------

/** Minimal recursive-descent JSON validator (syntax only). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value()) {
            return false;
        }
        ws();
        return pos_ == text_.size();
    }

  private:
    void
    ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t')) {
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0) {
            return false;
        }
        pos_ += len;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            return false;
        }
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= text_.size()) {
            return false;
        }
        ++pos_;  // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        ws();
        if (pos_ >= text_.size()) {
            return false;
        }
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            ws();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                ws();
                if (!string()) {
                    return false;
                }
                ws();
                if (pos_ >= text_.size() || text_[pos_] != ':') {
                    return false;
                }
                ++pos_;
                if (!value()) {
                    return false;
                }
                ws();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= text_.size() || text_[pos_] != '}') {
                return false;
            }
            ++pos_;
            return true;
        }
        if (c == '[') {
            ++pos_;
            ws();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                if (!value()) {
                    return false;
                }
                ws();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (pos_ >= text_.size() || text_[pos_] != ']') {
                return false;
            }
            ++pos_;
            return true;
        }
        if (c == '"') {
            return string();
        }
        if (c == 't') {
            return literal("true");
        }
        if (c == 'f') {
            return literal("false");
        }
        if (c == 'n') {
            return literal("null");
        }
        return number();
    }

    const std::string &text_;
    size_t pos_ = 0;
};

TEST(Observe, ChromeTraceExportIsWellFormedJson)
{
    quiesceRecorder();
    TraceRecorder::global().setEnabled(true);
    TraceRecorder::setCurrentThreadName("trace-test");
    {
        SPARSETIR_TRACE_SCOPE2("cat.a", "span.a", "x", 1, "y", -2);
    }
    {
        SPARSETIR_TRACE_SCOPE("cat.b", "span.b");
    }
    ASSERT_EQ(TraceRecorder::global().eventCount(), 2u);

    std::string path = "observe_chrome_trace_test.json";
    ASSERT_TRUE(TraceRecorder::global().writeChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    in.close();
    std::remove(path.c_str());

    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid()) << "not valid JSON:\n" << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(text.find("\"trace-test\""), std::string::npos);
    EXPECT_NE(text.find("\"span.a\""), std::string::npos);
    EXPECT_NE(text.find("\"span.b\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"x\":1"), std::string::npos);
    EXPECT_NE(text.find("\"y\":-2"), std::string::npos);

    // The text summary mentions the recorded spans.
    std::string summary = TraceRecorder::global().textSummary();
    EXPECT_NE(summary.find("span.a"), std::string::npos);
    EXPECT_NE(summary.find("span.b"), std::string::npos);

    quiesceRecorder();
}

// ---------------------------------------------------------------------
// Fused dispatch: one compute span per task-graph unit
// ---------------------------------------------------------------------

TEST(Observe, FusedDispatchTracesOneComputeSpanPerUnit)
{
    Csr a = graph::powerLawGraph(64, 600, 1.5, 11);
    int64_t feat = 8;

    auto pool = std::make_shared<engine::ThreadPool>(4);
    engine::ParallelExecutor executor(pool);
    engine::CompiledKernel kernel = engine::compileKernel(
        core::compileSpmmCsrFunc(feat, core::SpmmSchedule()));

    NDArray indptr = NDArray::fromInt32(a.indptr);
    NDArray indices = NDArray::fromInt32(a.indices);
    NDArray a_data = NDArray::fromFloat(a.values);
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 21));
    runtime::Bindings base;
    base.scalars["m"] = a.rows;
    base.scalars["n"] = a.cols;
    base.scalars["nnz"] = a.nnz();
    base.scalars["feat_size"] = feat;
    base.arrays["J_indptr"] = &indptr;
    base.arrays["J_indices"] = &indices;
    base.arrays["A_data"] = &a_data;
    base.arrays["B_data"] = &b;

    constexpr int kRequests = 2;
    std::vector<NDArray> outs;
    std::vector<runtime::Bindings> views;
    for (int r = 0; r < kRequests; ++r) {
        outs.emplace_back(std::vector<int64_t>{a.rows * feat},
                          ir::DataType::float32());
    }
    for (int r = 0; r < kRequests; ++r) {
        runtime::Bindings view = base;
        view.arrays["C_data"] = &outs[r];
        views.push_back(view);
    }
    std::vector<const runtime::Bindings *> requests{&views[0],
                                                    &views[1]};

    engine::ExecOptions options;
    options.minBlocksPerChunk = 8;
    std::vector<const engine::CompiledKernel *> kernels{&kernel};
    engine::TaskGraph graph =
        executor.buildTaskGraph(kernels, requests, options);
    ASSERT_GT(graph.units.size(), 0u);

    quiesceRecorder();
    TraceRecorder::global().setEnabled(true);
    executor.runTaskGraph(graph, requests, options);

    std::vector<observe::CollectedEvent> events =
        TraceRecorder::global().collect();
    size_t unit_spans = 0;
    std::set<std::pair<int64_t, int64_t>> seen_pairs;
    for (const auto &e : events) {
        if (std::string(e.event.name) != "fused.unit") {
            continue;
        }
        ++unit_spans;
        ASSERT_STREQ(e.event.arg0Name, "kernel");
        ASSERT_STREQ(e.event.arg1Name, "request");
        seen_pairs.insert({e.event.arg0, e.event.arg1});
    }
    EXPECT_EQ(unit_spans, graph.units.size())
        << "exactly one compute span per task-graph unit";
    // Every (kernel, request) pair in the graph shows up in the trace.
    std::set<std::pair<int64_t, int64_t>> want_pairs;
    for (const engine::TaskGraph::Unit &unit : graph.units) {
        want_pairs.insert({unit.kernel, unit.request});
    }
    EXPECT_EQ(seen_pairs, want_pairs);

    // A full batch (requests >= workers) of a multi-kernel list: one
    // unit per request over the whole list, so one span per request,
    // which names the kernel count and the request.
    engine::CompiledKernel second = engine::compileKernel(
        core::compileSpmmCsrFunc(feat, core::SpmmSchedule()));
    std::vector<const engine::CompiledKernel *> list{&kernel, &second};
    constexpr int kFullBatch = 4;
    for (int r = kRequests; r < kFullBatch; ++r) {
        outs.emplace_back(std::vector<int64_t>{a.rows * feat},
                          ir::DataType::float32());
    }
    views.clear();
    requests.clear();
    for (int r = 0; r < kFullBatch; ++r) {
        runtime::Bindings view = base;
        view.arrays["C_data"] = &outs[r];
        views.push_back(view);
    }
    for (const runtime::Bindings &view : views) {
        requests.push_back(&view);
    }
    graph = executor.buildTaskGraph(list, requests, options);
    ASSERT_EQ(graph.units.size(), static_cast<size_t>(kFullBatch));
    std::vector<observe::TraceEvent> spans =
        testutil::collectSpans("fused.unit", [&] {
            executor.runTaskGraph(graph, requests, options);
        });
    EXPECT_EQ(spans.size(), graph.units.size())
        << "exactly one compute span per task-graph unit";
    std::multiset<int64_t> seen_requests;
    for (const observe::TraceEvent &span : spans) {
        ASSERT_STREQ(span.arg0Name, "kernels");
        ASSERT_STREQ(span.arg1Name, "request");
        EXPECT_EQ(span.arg0, static_cast<int64_t>(list.size()));
        seen_requests.insert(span.arg1);
    }
    EXPECT_EQ(seen_requests, (std::multiset<int64_t>{0, 1, 2, 3}))
        << "each request runs as one unit";

    quiesceRecorder();
}

// ---------------------------------------------------------------------
// Per-engine metrics: warm/cold histograms and the snapshot
// ---------------------------------------------------------------------

TEST(Observe, EngineSnapshotReportsPerOpWarmLatency)
{
    Csr a = graph::powerLawGraph(100, 900, 1.8, 17);
    int64_t feat = 8;
    Engine eng(EngineOptions{});
    NDArray b = NDArray::fromFloat(randomVector(a.cols * feat, 5));
    NDArray c({a.rows * feat}, ir::DataType::float32());

    eng.spmmCsr(a, feat, &b, &c);  // cold
    constexpr int kWarm = 4;
    for (int i = 0; i < kWarm; ++i) {
        eng.spmmCsr(a, feat, &b, &c);
    }

    observe::MetricsSnapshot snap = eng.metricsSnapshot();
    ASSERT_EQ(snap.counters.count("engine.requests"), 1u);
    EXPECT_EQ(snap.counters.at("engine.requests"), 1u + kWarm);
    EXPECT_EQ(snap.counters.at("engine.cache_hits"),
              static_cast<uint64_t>(kWarm));
    EXPECT_EQ(snap.counters.at("engine.cache_misses"), 1u);

    ASSERT_EQ(
        snap.histograms.count("engine.warm_dispatch_ms.spmm_csr"),
        1u);
    const observe::HistogramSnapshot &warm =
        snap.histograms.at("engine.warm_dispatch_ms.spmm_csr");
    EXPECT_EQ(warm.count, static_cast<uint64_t>(kWarm));
    EXPECT_GE(warm.p50Ms, 0.0);
    EXPECT_LE(warm.p50Ms, warm.p99Ms);
    const observe::HistogramSnapshot &cold =
        snap.histograms.at("engine.cold_dispatch_ms.spmm_csr");
    EXPECT_EQ(cold.count, 1u);
    // Ops this session never dispatched stay empty.
    EXPECT_EQ(
        snap.histograms.at("engine.warm_dispatch_ms.spmm_hyb").count,
        0u);
    // Scratch gauges ride along in the same snapshot.
    EXPECT_EQ(snap.gauges.count("scratch.leased_bytes"), 1u);

    // A second engine's registry is independent: no aliasing.
    Engine other(EngineOptions{});
    observe::MetricsSnapshot other_snap = other.metricsSnapshot();
    EXPECT_EQ(other_snap.counters.at("engine.requests"), 0u);
}

/**
 * Make sched_setaffinity fail with EPERM for the calling thread and
 * every thread it starts from now on (a seccomp filter; the rest of
 * the process is untouched). False when the filter cannot be
 * installed.
 */
bool
denySetAffinity()
{
    struct sock_filter filter[] = {
        BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
        BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_sched_setaffinity, 0, 1),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | EPERM),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
    };
    struct sock_fprog program = {
        static_cast<unsigned short>(sizeof filter / sizeof filter[0]),
        filter};
    return ::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
           ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &program) == 0;
}

// A pool worker whose pin the kernel refuses runs unpinned, and the
// session counts it in engine.pool.unpinned_workers. The refusal is
// a seccomp filter on a throwaway thread that builds the engine.
TEST(Observe, FailedWorkerPinsAreCounted)
{
    EngineOptions options;
    options.numThreads = 3;
    {
        Engine eng(options);
        EXPECT_EQ(eng.metricsSnapshot().counters.at(
                      "engine.pool.unpinned_workers"),
                  0u);
    }

    bool denied = false;
    uint64_t unpinned = 0;
    std::thread builder([&] {
        denied = denySetAffinity();
        if (denied) {
            Engine eng(options);
            unpinned = eng.metricsSnapshot().counters.at(
                "engine.pool.unpinned_workers");
        }
    });
    builder.join();
    ASSERT_TRUE(denied) << "cannot install the seccomp filter";
    EXPECT_EQ(unpinned, 3u);
}

} // namespace
} // namespace sparsetir
