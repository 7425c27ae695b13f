#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <unordered_set>

#include "ir/analysis.h"
#include "ir/expr.h"
#include "ir/functor.h"
#include "ir/structural_equal.h"
#include "observe/trace.h"
#include "runtime/bytecode/compiler.h"
#include "runtime/bytecode/vm.h"
#include "runtime/native/native_compiler.h"
#include "support/logging.h"

namespace sparsetir {
namespace engine {

using namespace ir;
using runtime::Bindings;
using runtime::NDArray;

namespace {

/** Collects loads of one buffer (by data var) inside an expression. */
class LoadCollector : public ExprVisitor
{
  public:
    explicit LoadCollector(const VarNode *data) : data_(data) {}

    const std::vector<const BufferLoadNode *> &loads() const
    {
        return loads_;
    }

  protected:
    void
    visitBufferLoad(const BufferLoadNode *op) override
    {
        if (op->buffer->data.get() == data_) {
            loads_.push_back(op);
        }
        ExprVisitor::visitBufferLoad(op);
    }

  private:
    const VarNode *data_;
    std::vector<const BufferLoadNode *> loads_;
};

/**
 * Finds parameter-bound buffers updated by cross-element
 * accumulation: a store whose value re-loads the stored element, or
 * an atomic_add call. An RMW store inside a block whose init writes
 * the same buffer is exempt — that is an *initialized* reduction
 * (e.g. rfactor's final update): per element the init overwrites any
 * prior contents before the updates accumulate, so the kernel has
 * overwrite semantics and its per-block writes are disjoint; treating
 * it as accumulation would fold stale output contents back in.
 */
class AccumFinder : public StmtVisitor
{
  public:
    explicit AccumFinder(const PrimFunc &func)
    {
        for (const auto &param : func->params) {
            if (param->dtype.isHandle()) {
                params_.insert(param.get());
            }
        }
    }

    const std::set<std::string> &found() const { return found_; }

  protected:
    void
    visitBlock(const BlockNode *op) override
    {
        std::vector<const VarNode *> pushed;
        if (op->init != nullptr) {
            for (const BufferAccess &access :
                 collectBufferAccesses(op->init)) {
                if (access.isWrite) {
                    const VarNode *data = access.buffer->data.get();
                    if (init_written_.insert(data).second) {
                        pushed.push_back(data);
                    }
                }
            }
        }
        StmtVisitor::visitBlock(op);
        for (const VarNode *data : pushed) {
            init_written_.erase(data);
        }
    }

    void
    visitBufferStore(const BufferStoreNode *op) override
    {
        const VarNode *data = op->buffer->data.get();
        if (params_.count(data) && !init_written_.count(data)) {
            LoadCollector loads(data);
            loads.visitExpr(op->value);
            for (const BufferLoadNode *load : loads.loads()) {
                if (sameIndices(load->indices, op->indices)) {
                    found_.insert(data->name);
                    break;
                }
            }
        }
        StmtVisitor::visitBufferStore(op);
    }

    void
    visitCall(const CallNode *op) override
    {
        if (op->op == Builtin::kAtomicAdd && op->bufferArg != nullptr &&
            params_.count(op->bufferArg->data.get())) {
            found_.insert(op->bufferArg->data->name);
        }
        ExprVisitor::visitCall(op);
    }

  private:
    static bool
    sameIndices(const std::vector<Expr> &a, const std::vector<Expr> &b)
    {
        if (a.size() != b.size()) {
            return false;
        }
        for (size_t i = 0; i < a.size(); ++i) {
            if (!structuralEqual(a[i], b[i])) {
                return false;
            }
        }
        return true;
    }

    std::unordered_set<const VarNode *> params_;
    /** Buffers written by an enclosing block's init (scoped). */
    std::unordered_set<const VarNode *> init_written_;
    std::set<std::string> found_;
};

/** dst[i] += src[i] for i in [0, count), in the element type T. */
template <typename T>
void
addRange(void *dst, const void *src, int64_t count)
{
    T *d = static_cast<T *>(dst);
    const T *s = static_cast<const T *>(src);
    for (int64_t i = 0; i < count; ++i) {
        d[i] = static_cast<T>(d[i] + s[i]);
    }
}

/**
 * Fold a private accumulator into the shared array element-wise: the
 * whole array for whole-array privates, otherwise each packed span
 * of the compact window back onto its absolute position. An empty
 * window folds nothing.
 *
 * Typed loops over raw storage, checked per range. Each one matches
 * the per-element floatAt/setFloat (intAt/setInt) round trip bit for
 * bit: a float32 sum formed in double and rounded back equals the
 * float32 add, and integer sums truncated to the storage width equal
 * the wrapping add in the unsigned type of that width.
 */
void
foldInto(NDArray *shared, const NDArray &priv, const AccumOutput &out)
{
    ir::DataType dtype = shared->dtype();
    ICHECK(dtype == priv.dtype()) << "fold of mismatched dtypes";
    int bytes = shared->elemBytes();
    auto fold_range = [&](int64_t shared_begin, int64_t priv_begin,
                          int64_t count) {
        ICHECK(shared_begin >= 0 && priv_begin >= 0 && count >= 0 &&
               shared_begin + count <= shared->numel() &&
               priv_begin + count <= priv.numel())
            << "fold range outside its arrays";
        void *dst = static_cast<unsigned char *>(shared->rawData()) +
                    shared_begin * bytes;
        const void *src =
            static_cast<const unsigned char *>(priv.rawData()) +
            priv_begin * bytes;
        if (dtype.isFloat()) {
            ICHECK(bytes == 4 || bytes == 8)
                << "fold of unsupported float dtype " << dtype.str();
            if (bytes == 4) {
                addRange<float>(dst, src, count);
            } else {
                addRange<double>(dst, src, count);
            }
        } else if (dtype.isBool()) {
            // setInt stores (a + b) != 0: a logical or.
            auto *d = static_cast<unsigned char *>(dst);
            auto *s = static_cast<const unsigned char *>(src);
            for (int64_t i = 0; i < count; ++i) {
                d[i] = (d[i] != 0 || s[i] != 0) ? 1 : 0;
            }
        } else {
            ICHECK(dtype.isInt() || dtype.isUInt())
                << "fold of unsupported dtype " << dtype.str();
            switch (bytes) {
              case 1:
                addRange<uint8_t>(dst, src, count);
                break;
              case 2:
                addRange<uint16_t>(dst, src, count);
                break;
              case 4:
                addRange<uint32_t>(dst, src, count);
                break;
              case 8:
                addRange<uint64_t>(dst, src, count);
                break;
              default:
                ICHECK(false) << "fold of unsupported int width "
                              << dtype.str();
            }
        }
    };
    if (out.wholeArray) {
        ICHECK_EQ(shared->numel(), priv.numel());
        fold_range(0, 0, shared->numel());
        return;
    }
    ICHECK_EQ(priv.numel(), out.window.numel);
    const auto &spans = out.window.spans;
    for (size_t k = 0; k < spans.size(); ++k) {
        fold_range(spans[k].first, out.window.bases[k],
                   spans[k].second - spans[k].first);
    }
}

/**
 * Grid extent from the kernel's spilled launch expression, evaluated
 * over the request's scalar bindings; 0 when the kernel has no block
 * grid or the extent is not scalar-evaluable (run unsplit then).
 * Never probes through runtime::launchInfo — that is the point.
 */
int64_t
blockExtentOf(const CompiledKernel &kernel, const Bindings &bindings)
{
    int64_t extent = 0;
    if (kernel.blockExtent != nullptr &&
        runtime::evalScalarExtent(kernel.blockExtent, bindings,
                                  &extent)) {
        return extent;
    }
    return 0;
}

/** Execute one kernel (optionally windowed) on the chosen backend. */
void
execOne(const CompiledKernel &kernel, const Bindings &bindings,
        const ExecOptions &options,
        const runtime::RunOptions &window = runtime::RunOptions())
{
    runtime::RunOptions run = window;
    run.backend = options.backend;
    // Tier chain: native when promoted, bytecode otherwise, with the
    // interpreter as the final authority. A kNative dispatch whose
    // kernel has no swapped-in artifact yet (promotion pending, or
    // emission/cc bailed) is indistinguishable from kBytecode.
    if (options.backend == runtime::Backend::kNative &&
        kernel.native != nullptr) {
        if (auto native = kernel.native->get()) {
            runtime::native::execute(*native, bindings, run);
            return;
        }
    }
    if (options.backend != runtime::Backend::kInterpreter &&
        kernel.program != nullptr) {
        runtime::bytecode::execute(*kernel.program, bindings, run);
        return;
    }
    runtime::run(kernel.func, bindings, run);
}

/** The serial oracle itself: kernels in list order per request. */
void
runSerial(const std::vector<const CompiledKernel *> &kernels,
          const std::vector<const Bindings *> &requests,
          const ExecOptions &options)
{
    for (const Bindings *request : requests) {
        for (const CompiledKernel *kernel : kernels) {
            execOne(*kernel, *request, options);
        }
    }
}

} // namespace

void
AccumOutput::setSpans(std::vector<Span> spans)
{
    window = runtime::OffsetView::fromSpans(std::move(spans));
    wholeArray = false;
}

CompiledKernel
compileKernel(const ir::PrimFunc &func, bool with_program,
              bool analyze_accums)
{
    SPARSETIR_TRACE_SCOPE("compile", "compile.kernel");
    CompiledKernel kernel;
    kernel.func = func;
    // Every kernel gets an (empty) native box so the promotion path
    // can swap an artifact into copies already handed out.
    kernel.native = std::make_shared<NativeBox>();
    if (with_program) {
        kernel.program = runtime::bytecode::programFor(func);
    }
    // Spill the launch info: take the extent the bytecode compiler
    // already located, or walk the IR once here (interpreter-only
    // kernels). Warm dispatches evaluate this expression instead of
    // probing the grid through the interpreter.
    if (kernel.program != nullptr) {
        kernel.blockExtent = kernel.program->blockExtent;
    } else if (const ir::ForNode *loop =
                   runtime::findBlockIdxLoop(func->body)) {
        kernel.blockExtent = loop->extent;
    }
    if (analyze_accums) {
        for (std::string &name :
             ParallelExecutor::accumulatedParams(func)) {
            AccumOutput out;
            out.name = std::move(name);
            kernel.accums.push_back(std::move(out));
        }
    }
    return kernel;
}

std::vector<Span>
touchedRowSpans(const std::vector<int32_t> &rows, int64_t row_width)
{
    std::vector<int32_t> sorted(rows);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    std::vector<Span> spans;
    for (size_t i = 0; i < sorted.size();) {
        size_t j = i + 1;
        while (j < sorted.size() &&
               sorted[j] == sorted[j - 1] + 1) {
            ++j;
        }
        spans.emplace_back(
            static_cast<int64_t>(sorted[i]) * row_width,
            (static_cast<int64_t>(sorted[j - 1]) + 1) * row_width);
        i = j;
    }
    return spans;
}

// ---------------------------------------------------------------------
// ScratchPool
// ---------------------------------------------------------------------

namespace {

int64_t
arrayBytes(const NDArray &array)
{
    return array.numel() * array.elemBytes();
}

} // namespace

ScratchPool::ScratchPool(int64_t max_free_bytes)
    : maxFreeBytes_(max_free_bytes)
{
    ICHECK_GE(maxFreeBytes_, 0);
}

ScratchPool::Lease
ScratchPool::acquire(int64_t numel, ir::DataType dtype)
{
    Key key{numel,
            (static_cast<uint64_t>(dtype.code()) << 32) |
                (static_cast<uint64_t>(dtype.bits()) << 16) |
                static_cast<uint64_t>(dtype.lanes())};
    std::lock_guard<std::mutex> lock(mu_);
    ++leases_;
    auto it = free_.find(key);
    if (it != free_.end() && !it->second.empty()) {
        std::unique_ptr<NDArray> array =
            std::move(it->second.back().array);
        it->second.pop_back();
        freeBytes_ -= arrayBytes(*array);
        leasedBytes_ += arrayBytes(*array);
        peakLeasedBytes_ = std::max(peakLeasedBytes_, leasedBytes_);
        NDArray *raw = array.release();
        leased_[raw] = key;
        return Lease{raw, /*fresh=*/false};
    }
    auto array = std::make_unique<NDArray>(
        std::vector<int64_t>{numel}, dtype);
    ++allocations_;
    leasedBytes_ += arrayBytes(*array);
    peakLeasedBytes_ = std::max(peakLeasedBytes_, leasedBytes_);
    NDArray *raw = array.release();
    leased_[raw] = key;
    return Lease{raw, /*fresh=*/true};
}

void
ScratchPool::evictOldestLocked()
{
    auto oldest = free_.end();
    for (auto it = free_.begin(); it != free_.end();) {
        if (it->second.empty()) {
            it = free_.erase(it);
            continue;
        }
        // Entries within a key are release-ordered, so the front is
        // that key's oldest; compare fronts across keys.
        if (oldest == free_.end() ||
            it->second.front().seq < oldest->second.front().seq) {
            oldest = it;
        }
        ++it;
    }
    if (oldest == free_.end()) {
        return;
    }
    freeBytes_ -= arrayBytes(*oldest->second.front().array);
    oldest->second.erase(oldest->second.begin());
}

void
ScratchPool::release(NDArray *array)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = leased_.find(array);
    ICHECK(it != leased_.end())
        << "scratch release of an array the pool did not lease";
    std::unique_ptr<NDArray> owned(array);
    Key key = it->second;
    leased_.erase(it);
    int64_t bytes = arrayBytes(*owned);
    leasedBytes_ -= bytes;
    if (bytes > maxFreeBytes_) {
        return;  // larger than the whole budget: never retainable,
                 // and evicting the warm pool for it would be waste
    }
    // Make room by evicting least-recently-released buffers, so a
    // workload shift to new shapes displaces stale buffers instead
    // of being locked out of the pool by them.
    while (freeBytes_ + bytes > maxFreeBytes_ && !free_.empty()) {
        evictOldestLocked();
    }
    freeBytes_ += bytes;
    free_[key].push_back(FreeEntry{std::move(owned), seq_++});
}

ScratchStats
ScratchPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ScratchStats stats;
    stats.leasedBytes = leasedBytes_;
    stats.peakLeasedBytes = peakLeasedBytes_;
    stats.freeBytes = freeBytes_;
    stats.leases = leases_;
    stats.allocations = allocations_;
    return stats;
}

void
ScratchPool::resetPeak()
{
    std::lock_guard<std::mutex> lock(mu_);
    peakLeasedBytes_ = leasedBytes_;
}

void
ScratchPool::poisonFree(unsigned char byte)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[key, entries] : free_) {
        (void)key;
        for (FreeEntry &entry : entries) {
            int64_t bytes = arrayBytes(*entry.array);
            if (bytes > 0) {
                std::memset(entry.array->rawData(), byte,
                            static_cast<size_t>(bytes));
            }
        }
    }
}

// ---------------------------------------------------------------------
// ParallelExecutor
// ---------------------------------------------------------------------

ParallelExecutor::ParallelExecutor(std::shared_ptr<ThreadPool> pool)
    : pool_(std::move(pool))
{
    ICHECK(pool_ != nullptr);
}

bool
ParallelExecutor::serial(const ExecOptions &options) const
{
    return !options.parallel || pool_->size() <= 1;
}

std::vector<std::string>
ParallelExecutor::accumulatedParams(const PrimFunc &func)
{
    AccumFinder finder(func);
    if (func->body != nullptr) {
        finder.visitStmt(func->body);
    }
    return std::vector<std::string>(finder.found().begin(),
                                    finder.found().end());
}

Bindings
ParallelExecutor::privatize(const CompiledKernel &kernel,
                            const Bindings &shared,
                            std::vector<Private> *privates,
                            runtime::RunOptions *run) const
{
    Bindings local = shared;
    for (const AccumOutput &out : kernel.accums) {
        // Lazy-binding convention: an accumulated buffer the caller
        // did not bind would fault on access anyway.
        auto it = shared.arrays.find(out.name);
        if (it == shared.arrays.end()) {
            continue;
        }
        const NDArray &orig = *it->second;
        int64_t numel = orig.numel();
        if (!out.wholeArray) {
            // Spans come from the artifact; the output array from
            // the caller. An undersized binding must fail here with
            // a binding diagnostic, not later as a VM bounds fault.
            if (!out.window.spans.empty()) {
                ICHECK_LE(out.window.spans.back().second, orig.numel())
                    << "write-set span of '" << out.name
                    << "' exceeds the bound output array (undersized "
                       "output binding?)";
            }
            // Lease only the write-set extent. An empty write set
            // leases zero elements: the unit can touch nothing, and
            // if the kernel writes anyway the window faults — the
            // old empty-spans == whole-array sentinel instead paid a
            // full-output zero+fold (and flipped -0.0 pre-values).
            numel = out.window.numel;
        }
        ScratchPool::Lease lease = scratch_.acquire(numel, orig.dtype());
        // Record the lease before any step that can throw, so the
        // caller's cleanup path can release it.
        privates->push_back(Private{&out, lease.array});
        // The zero contract is the executor's, not the allocator's:
        // pool contents are unspecified, so zero unconditionally
        // rather than depending on NDArray's constructor fill (a
        // redundant memset only on the cold, pool-miss path; leases
        // are write-set sized, so it covers exactly the bytes that
        // will be folded).
        lease.array->zero();
        local.arrays[out.name] = lease.array;
        if (!out.wholeArray) {
            // The kernel keeps writing absolute offsets; both
            // backends translate them through this view into the
            // packed lease.
            run->offsetViews.push_back(
                runtime::BufferView{out.name, &out.window});
        }
    }
    return local;
}

void
ParallelExecutor::foldAndRelease(const Bindings &shared,
                                 std::vector<Private> *privates) const
{
    for (Private &priv : *privates) {
        NDArray *target = shared.arrays.at(priv.out->name);
        foldInto(target, *priv.array, *priv.out);
        scratch_.release(priv.array);
        priv.array = nullptr;
    }
    privates->clear();
}

void
ParallelExecutor::releaseAll(
    std::vector<std::vector<Private>> *privates) const
{
    for (auto &group : *privates) {
        for (Private &priv : group) {
            if (priv.array != nullptr) {
                scratch_.release(priv.array);
                priv.array = nullptr;
            }
        }
        group.clear();
    }
}

int
ParallelExecutor::run(const std::vector<const CompiledKernel *> &kernels,
                      const std::vector<const Bindings *> &requests,
                      const ExecOptions &options) const
{
    if (serial(options)) {
        // Serial sessions skip graph construction entirely — the
        // plan (extent evaluations, unit/chain vectors) would be
        // built per dispatch only to be ignored by the fallback.
        runSerial(kernels, requests, options);
        return 0;
    }
    return runTaskGraph(buildTaskGraph(kernels, requests, options),
                        requests, options);
}

// ---------------------------------------------------------------------
// Fused task-graph dispatch
// ---------------------------------------------------------------------

TaskGraph
ParallelExecutor::buildTaskGraph(
    const std::vector<const CompiledKernel *> &kernels,
    const std::vector<const Bindings *> &requests,
    const ExecOptions &options) const
{
    TaskGraph graph;
    graph.kernels = kernels;
    graph.numRequests = static_cast<int>(requests.size());
    graph.chains.resize(requests.size());
    if (kernels.empty() || requests.empty()) {
        return graph;
    }
    int workers = pool_->size();
    // Requests alone fill the pool: parallelize across requests only.
    // Each chain runs its kernels in list order on shared storage —
    // the serial order, so bitwise by construction — and nothing is
    // privatized, zeroed, windowed or folded.
    bool all_on_shared =
        static_cast<int64_t>(requests.size()) >= workers;
    int64_t num_splittable = 0;
    for (const CompiledKernel *kernel : kernels) {
        if (!kernel->exclusive) {
            ++num_splittable;
        }
    }
    // Spread the pool across the whole cross product: each
    // non-exclusive (request, kernel) pair gets at most
    // ceil(workers / pairs) grid chunks, keeping the unit count near
    // the worker count. Once requests x kernels alone saturates the
    // pool, nothing is split (pure unit parallelism, minimal
    // privatization).
    int64_t pairs = std::max<int64_t>(
        1, static_cast<int64_t>(requests.size()) * num_splittable);
    int64_t cap =
        std::max<int64_t>(1, (workers + pairs - 1) / pairs);
    int64_t min_chunk = std::max<int64_t>(options.minBlocksPerChunk, 1);
    for (size_t r = 0; r < requests.size(); ++r) {
        for (size_t k = 0; k < kernels.size(); ++k) {
            TaskGraph::ChainEntry entry;
            entry.kernel = static_cast<int>(k);
            if (all_on_shared || kernels[k]->exclusive) {
                // Never split, never privatized: executes on shared
                // storage at its chain position.
                entry.onShared = true;
                graph.chains[r].push_back(entry);
                continue;
            }
            int64_t chunks = 1;
            int64_t extent = 0;
            if (cap >= 2) {
                extent = blockExtentOf(*kernels[k], *requests[r]);
                if (extent > 0) {
                    chunks = std::max<int64_t>(
                        1, std::min(cap, extent / min_chunk));
                }
            }
            entry.firstUnit = graph.units.size();
            entry.numUnits = static_cast<int>(chunks);
            if (chunks < 2) {
                entry.numUnits = 1;
                graph.units.push_back(
                    TaskGraph::Unit{static_cast<int>(r),
                                    static_cast<int>(k), 0, -1});
            } else {
                int64_t base = extent / chunks;
                int64_t rem = extent % chunks;
                int64_t begin = 0;
                for (int64_t c = 0; c < chunks; ++c) {
                    int64_t len = base + (c < rem ? 1 : 0);
                    graph.units.push_back(
                        TaskGraph::Unit{static_cast<int>(r),
                                        static_cast<int>(k), begin,
                                        begin + len});
                    begin += len;
                }
            }
            graph.chains[r].push_back(entry);
        }
    }
    return graph;
}

int
ParallelExecutor::runTaskGraph(
    const TaskGraph &graph,
    const std::vector<const Bindings *> &requests,
    const ExecOptions &options) const
{
    ICHECK_EQ(static_cast<size_t>(graph.numRequests), requests.size())
        << "task graph was built for a different request set";
    if (graph.kernels.empty() || requests.empty()) {
        return 0;
    }
    if (serial(options)) {
        runSerial(graph.kernels, requests, options);
        return 0;
    }

    int64_t num_requests = static_cast<int64_t>(requests.size());
    size_t num_kernels = graph.kernels.size();
    size_t num_units = graph.units.size();

    // Per-(request, kernel) count of unfinished compute units. A
    // fold entry is ready exactly when its count hits
    // zero; the release-decrement / acquire-load pair makes the
    // finishing unit's private writes visible to whichever thread
    // folds them.
    std::unique_ptr<std::atomic<int>[]> pending(
        new std::atomic<int>[num_requests * num_kernels]);
    for (int64_t i = 0; i < num_requests *
                                static_cast<int64_t>(num_kernels);
         ++i) {
        pending[i].store(0, std::memory_order_relaxed);
    }
    for (int64_t r = 0; r < num_requests; ++r) {
        for (const TaskGraph::ChainEntry &entry : graph.chains[r]) {
            if (!entry.onShared) {
                pending[r * num_kernels + entry.kernel].store(
                    entry.numUnits, std::memory_order_relaxed);
            }
        }
    }
    std::vector<std::mutex> chain_mu(num_requests);
    std::vector<size_t> cursor(num_requests, 0);
    // Chain has a thread inside an on-shared kernel (lock dropped
    // for the duration); other advances return and the busy thread
    // re-walks when it finishes.
    std::vector<uint8_t> busy(num_requests, 0);

    std::vector<std::vector<Private>> privates(num_units);
    std::vector<Bindings> locals;
    locals.reserve(num_units);
    std::vector<runtime::RunOptions> runs(num_units);
    int privatized = 0;
    try {
        for (size_t i = 0; i < num_units; ++i) {
            const TaskGraph::Unit &unit = graph.units[i];
            runs[i].blockBegin = unit.blockBegin;
            runs[i].blockEnd = unit.blockEnd;
            locals.push_back(privatize(*graph.kernels[unit.kernel],
                                       *requests[unit.request],
                                       &privates[i], &runs[i]));
            if (!privates[i].empty()) {
                ++privatized;
            }
        }

        // Walk request r's chain as far as readiness allows. Every
        // pending-hit-zero event calls this, so the chain drains: the
        // mutex totally orders the walks, each decrement precedes its
        // own walk, hence the last walk in lock order sees every
        // earlier kernel ready and runs to the end. An on-shared
        // kernel executes with the lock DROPPED (`busy` keeps later
        // folds of the same request ordered behind it while
        // concurrent advances return instead of idling on the
        // mutex); the executing thread re-walks afterwards, so any
        // readiness event that arrived meanwhile is picked up.
        auto advance = [&](int64_t r) {
            std::unique_lock<std::mutex> lock(chain_mu[r]);
            if (busy[r]) {
                return;  // the busy thread re-walks when it finishes
            }
            const std::vector<TaskGraph::ChainEntry> &chain =
                graph.chains[r];
            while (cursor[r] < chain.size()) {
                const TaskGraph::ChainEntry &entry = chain[cursor[r]];
                if (entry.onShared) {
                    busy[r] = 1;
                    lock.unlock();
                    {
                        SPARSETIR_TRACE_SCOPE2(
                            "exec", "fused.shared", "kernel",
                            entry.kernel, "request", r);
                        execOne(*graph.kernels[entry.kernel],
                                *requests[r], options);
                    }
                    lock.lock();
                    busy[r] = 0;
                } else {
                    if (pending[r * num_kernels + entry.kernel].load(
                            std::memory_order_acquire) != 0) {
                        break;
                    }
                    SPARSETIR_TRACE_SCOPE2("exec", "fused.fold",
                                           "kernel", entry.kernel,
                                           "request", r);
                    for (int c = 0; c < entry.numUnits; ++c) {
                        foldAndRelease(*requests[r],
                                       &privates[entry.firstUnit + c]);
                    }
                }
                ++cursor[r];
            }
        };

        // ONE pool over everything: a kickoff task per request (so a
        // chain headed by an on-shared entry starts without waiting
        // on any compute unit) plus every compute unit, drained by at
        // most one self-replenishing runner per worker over a shared
        // task counter.
        int64_t total_tasks =
            num_requests + static_cast<int64_t>(num_units);
        std::atomic<int64_t> next_task{0};
        auto run_task = [&](int64_t t) {
            if (t < num_requests) {
                advance(t);
                return;
            }
            size_t i = static_cast<size_t>(t - num_requests);
            const TaskGraph::Unit &unit = graph.units[i];
            {
                SPARSETIR_TRACE_SCOPE2("exec", "fused.unit", "kernel",
                                       unit.kernel, "request",
                                       unit.request);
                execOne(*graph.kernels[unit.kernel], locals[i],
                        options, runs[i]);
            }
            if (pending[unit.request * num_kernels + unit.kernel]
                    .fetch_sub(1, std::memory_order_acq_rel) == 1) {
                advance(unit.request);
            }
        };
        pool_->parallelFor(
            std::min<int64_t>(pool_->size(), total_tasks),
            [&](int64_t) {
                for (;;) {
                    int64_t t = next_task.fetch_add(
                        1, std::memory_order_relaxed);
                    if (t >= total_tasks) {
                        return;
                    }
                    run_task(t);
                }
            });
        for (int64_t r = 0; r < num_requests; ++r) {
            ICHECK_EQ(cursor[r], graph.chains[r].size())
                << "fused fold chain of request " << r
                << " did not drain";
        }
    } catch (...) {
        releaseAll(&privates);
        throw;
    }
    return privatized;
}

} // namespace engine
} // namespace sparsetir
