#include "engine/executor.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <set>
#include <unordered_set>

#include "ir/analysis.h"
#include "ir/expr.h"
#include "ir/functor.h"
#include "ir/structural_equal.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "runtime/bytecode/compiler.h"
#include "runtime/bytecode/vm.h"
#include "runtime/native/native_compiler.h"
#include "support/logging.h"
#include "transform/hoist_invariants.h"

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
 * it as accumulation would order its chunks for nothing.
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

/**
 * Grid extent from the kernel's spilled launch expression, evaluated
 * over the request's scalar bindings; 0 when the kernel has no block
 * grid or the extent is not scalar-evaluable (run unsplit then).
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

/** Execute blocks [begin, end) of one kernel on the chosen backend. */
void
execOne(const CompiledKernel &kernel, const Bindings &bindings,
        const ExecOptions &options, int64_t block_begin = 0,
        int64_t block_end = -1)
{
    runtime::RunOptions run;
    run.backend = options.backend;
    run.blockBegin = block_begin;
    run.blockEnd = block_end;
    // Tier chain: native when promoted, bytecode otherwise, with the
    // interpreter as the final authority. A kNative dispatch whose
    // kernel has no swapped-in artifact yet (promotion pending, or
    // emission/cc bailed) is indistinguishable from kBytecode, and so
    // is one whose proof guard refused these bindings: it ran nothing,
    // and the checked tier raises any fault with its own diagnostic.
    if (options.backend == runtime::Backend::kNative &&
        kernel.native != nullptr) {
        if (auto native = kernel.native->get()) {
            if (runtime::native::execute(*native, bindings, run)) {
                return;
            }
            if (options.guardMisses != nullptr) {
                options.guardMisses->add(1);
            }
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

CompiledKernel
compileKernel(const ir::PrimFunc &func)
{
    SPARSETIR_TRACE_SCOPE("compile", "compile.kernel");
    CompiledKernel kernel;
    // Every backend, the write-set scan, the verifier and native
    // emission see the hoisted IR; the pass is idempotent, so kernels
    // their producer already hoisted come through unchanged.
    kernel.func = transform::hoistInvariants(func);
    // Every kernel gets an (empty) native box so the promotion path
    // can swap an artifact into copies already handed out.
    kernel.native = std::make_shared<NativeBox>();
    kernel.program = runtime::bytecode::programFor(kernel.func);
    // Spill the launch info: take the extent the bytecode compiler
    // already located, or walk the IR once here (interpreter-only
    // kernels). Warm dispatches size the grid from this expression.
    if (kernel.program != nullptr) {
        kernel.blockExtent = kernel.program->blockExtent;
    } else if (const ir::ForNode *loop =
                   runtime::findBlockIdxLoop(kernel.func->body)) {
        kernel.blockExtent = loop->extent;
    }
    for (std::string &name :
         ParallelExecutor::accumulatedParams(kernel.func)) {
        AccumOutput out;
        out.name = std::move(name);
        kernel.accums.push_back(std::move(out));
    }
    return kernel;
}

std::vector<Span>
blockHulls(const std::vector<int32_t> &rows, int64_t rows_per_block,
           int64_t row_width)
{
    ICHECK_GT(rows_per_block, 0);
    ICHECK(std::is_sorted(rows.begin(), rows.end()))
        << "block hulls need non-decreasing rows";
    int64_t n = static_cast<int64_t>(rows.size());
    std::vector<Span> hulls;
    hulls.reserve((n + rows_per_block - 1) / rows_per_block);
    for (int64_t first = 0; first < n; first += rows_per_block) {
        int64_t last = std::min(first + rows_per_block, n) - 1;
        hulls.emplace_back(rows[first] * row_width,
                           (static_cast<int64_t>(rows[last]) + 1) *
                               row_width);
    }
    return hulls;
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


void
ParallelExecutor::run(const std::vector<const CompiledKernel *> &kernels,
                      const std::vector<const Bindings *> &requests,
                      const ExecOptions &options) const
{
    if (serial(options)) {
        // Serial sessions skip graph construction entirely.
        runSerial(kernels, requests, options);
        return;
    }
    runTaskGraph(buildTaskGraph(kernels, requests, options), requests,
                 options);
}

// ---------------------------------------------------------------------
// Conflict-ordered task graph
// ---------------------------------------------------------------------

namespace {

/** Whether every accumulated output of `kernel` carries block hulls. */
bool
hasHulls(const CompiledKernel &kernel)
{
    if (kernel.accums.empty()) {
        return false;
    }
    for (const AccumOutput &out : kernel.accums) {
        if (out.hulls.empty()) {
            return false;
        }
    }
    return true;
}

/** What one unit accumulates into, for the ordering rule. */
struct UnitWrites
{
    bool accumulates = false;
    /** False: the write set is unknown and conflicts with any. */
    bool known = false;
    /** (output, hull of the unit's blocks) per accumulated output. */
    std::vector<std::pair<const std::string *, Span>> hulls;
};

UnitWrites
unitWrites(const CompiledKernel &kernel, int64_t begin, int64_t end)
{
    UnitWrites writes;
    writes.accumulates = !kernel.accums.empty();
    writes.known = hasHulls(kernel);
    if (!writes.known) {
        return writes;
    }
    for (const AccumOutput &out : kernel.accums) {
        int64_t num_blocks = static_cast<int64_t>(out.hulls.size());
        int64_t last = end < 0 ? num_blocks : std::min(end, num_blocks);
        Span hull{std::numeric_limits<int64_t>::max(),
                  std::numeric_limits<int64_t>::min()};
        for (int64_t b = begin; b < last; ++b) {
            hull.first = std::min(hull.first, out.hulls[b].first);
            hull.second = std::max(hull.second, out.hulls[b].second);
        }
        if (hull.first < hull.second) {
            writes.hulls.emplace_back(&out.name, hull);
        }
    }
    return writes;
}

/** The ordering rule: must the later of two units wait on the other? */
bool
conflicts(const UnitWrites &a, const UnitWrites &b)
{
    if (!a.accumulates || !b.accumulates) {
        return false;
    }
    if (!a.known || !b.known) {
        return true;
    }
    for (const auto &[name_a, hull_a] : a.hulls) {
        for (const auto &[name_b, hull_b] : b.hulls) {
            if (*name_a == *name_b && hull_a.first < hull_b.second &&
                hull_b.first < hull_a.second) {
                return true;
            }
        }
    }
    return false;
}

/**
 * Element cuts shared by every hull-bearing kernel: quantiles of all
 * their blocks' hull starts, so each band holds about the same number
 * of blocks. At most `bands` - 1 cuts, none when fewer than two bands
 * of `min_chunk` blocks fit.
 */
std::vector<int64_t>
commonCuts(const std::vector<const CompiledKernel *> &kernels,
           int64_t bands, int64_t min_chunk)
{
    std::vector<int64_t> starts;
    for (const CompiledKernel *kernel : kernels) {
        if (hasHulls(*kernel)) {
            for (const Span &hull : kernel->accums[0].hulls) {
                starts.push_back(hull.first);
            }
        }
    }
    int64_t num_starts = static_cast<int64_t>(starts.size());
    bands = std::min(bands, num_starts / min_chunk);
    std::vector<int64_t> cuts;
    if (bands < 2) {
        return cuts;
    }
    std::sort(starts.begin(), starts.end());
    for (int64_t j = 1; j < bands; ++j) {
        cuts.push_back(starts[j * num_starts / bands]);
    }
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return cuts;
}

/**
 * Block ranges of a hull-bearing kernel: a new chunk starts at the
 * first block whose hull starts at or after each cut.
 */
std::vector<Span>
cutAt(const CompiledKernel &kernel, const std::vector<int64_t> &cuts)
{
    const std::vector<Span> &hulls = kernel.accums[0].hulls;
    int64_t num_blocks = static_cast<int64_t>(hulls.size());
    std::vector<Span> ranges;
    int64_t begin = 0;
    for (int64_t cut : cuts) {
        int64_t end =
            std::lower_bound(hulls.begin() + begin, hulls.end(), cut,
                             [](const Span &hull, int64_t value) {
                                 return hull.first < value;
                             }) -
            hulls.begin();
        if (end > begin) {
            ranges.emplace_back(begin, end);
            begin = end;
        }
    }
    if (begin < num_blocks) {
        ranges.emplace_back(begin, num_blocks);
    }
    return ranges;
}

/** [0, extent) in `chunks` near-equal contiguous block ranges. */
std::vector<Span>
evenChunks(int64_t extent, int64_t chunks)
{
    std::vector<Span> ranges;
    int64_t base = extent / chunks;
    int64_t rem = extent % chunks;
    int64_t begin = 0;
    for (int64_t c = 0; c < chunks; ++c) {
        int64_t len = base + (c < rem ? 1 : 0);
        ranges.emplace_back(begin, begin + len);
        begin += len;
    }
    return ranges;
}

/** One unit: a block window of one kernel, or whole kernels in order. */
void
runUnit(const TaskGraph &graph, const TaskGraph::Unit &unit,
        const Bindings &bindings, const ExecOptions &options)
{
    int count = unit.kernelEnd - unit.kernel;
    SPARSETIR_TRACE_SCOPE2("exec", "fused.unit",
                           count == 1 ? "kernel" : "kernels",
                           count == 1 ? unit.kernel : count, "request",
                           unit.request);
    for (int k = unit.kernel; k < unit.kernelEnd; ++k) {
        execOne(*graph.kernels[k], bindings, options, unit.blockBegin,
                unit.blockEnd);
    }
}

} // namespace

TaskGraph
ParallelExecutor::buildTaskGraph(
    const std::vector<const CompiledKernel *> &kernels,
    const std::vector<const Bindings *> &requests,
    const ExecOptions &options) const
{
    TaskGraph graph;
    graph.kernels = kernels;
    graph.numRequests = static_cast<int>(requests.size());
    if (kernels.empty() || requests.empty()) {
        return graph;
    }
    int64_t num_requests = static_cast<int64_t>(requests.size());
    // Chunks each request asks for: 1 once the requests alone fill the
    // pool. Then each request is one unit over its whole kernel list,
    // in the serial order; requests bind disjoint outputs, so no unit
    // waits on another.
    int64_t per_request = (pool_->size() + num_requests - 1) / num_requests;
    if (per_request == 1) {
        for (int r = 0; r < graph.numRequests; ++r) {
            TaskGraph::Unit unit;
            unit.request = r;
            unit.kernelEnd = static_cast<int>(kernels.size());
            graph.units.push_back(std::move(unit));
        }
        return graph;
    }
    int64_t min_chunk = std::max<int64_t>(options.minBlocksPerChunk, 1);
    // Hulls are per artifact, not per request: one set of cuts serves
    // every request.
    std::vector<int64_t> cuts = commonCuts(kernels, per_request, min_chunk);
    std::vector<UnitWrites> writes;
    for (int64_t r = 0; r < num_requests; ++r) {
        size_t first = graph.units.size();
        for (size_t k = 0; k < kernels.size(); ++k) {
            const CompiledKernel &kernel = *kernels[k];
            std::vector<Span> ranges;
            if (hasHulls(kernel)) {
                ICHECK_LE(blockExtentOf(kernel, *requests[r]),
                          static_cast<int64_t>(
                              kernel.accums[0].hulls.size()))
                    << "kernel has more grid blocks than block hulls";
                ranges = cutAt(kernel, cuts);
            } else if (kernel.accums.empty()) {
                int64_t extent = blockExtentOf(kernel, *requests[r]);
                int64_t chunks =
                    std::min(per_request, extent / min_chunk);
                if (chunks >= 2) {
                    ranges = evenChunks(extent, chunks);
                }
            }
            if (ranges.size() < 2) {
                ranges = {Span{0, -1}};  // unsplit
            }
            for (const Span &range : ranges) {
                TaskGraph::Unit unit;
                unit.request = static_cast<int>(r);
                unit.kernel = static_cast<int>(k);
                unit.kernelEnd = unit.kernel + 1;
                unit.blockBegin = range.first;
                unit.blockEnd = range.second;
                graph.units.push_back(std::move(unit));
                writes.push_back(
                    unitWrites(kernel, range.first, range.second));
            }
        }
        // The one rule: wait on every earlier conflicting unit of the
        // same request.
        for (size_t u = first; u < graph.units.size(); ++u) {
            for (size_t v = first; v < u; ++v) {
                if (conflicts(writes[u], writes[v])) {
                    graph.units[u].after.push_back(static_cast<int>(v));
                }
            }
        }
    }
    return graph;
}

void
ParallelExecutor::runTaskGraph(
    const TaskGraph &graph,
    const std::vector<const Bindings *> &requests,
    const ExecOptions &options) const
{
    ICHECK_EQ(static_cast<size_t>(graph.numRequests), requests.size())
        << "task graph was built for a different request set";
    if (graph.units.empty()) {
        return;
    }
    if (serial(options)) {
        runSerial(graph.kernels, requests, options);
        return;
    }

    size_t num_units = graph.units.size();
    // Successor lists (CSR) and outstanding-wait counts.
    std::vector<size_t> succ_begin(num_units + 1, 0);
    std::vector<size_t> waits(num_units, 0);
    int num_kernels = static_cast<int>(graph.kernels.size());
    for (size_t u = 0; u < num_units; ++u) {
        const TaskGraph::Unit &unit = graph.units[u];
        ICHECK(unit.kernel >= 0 && unit.kernel < unit.kernelEnd &&
               unit.kernelEnd <= num_kernels &&
               (unit.kernelEnd - unit.kernel == 1 || unit.blockEnd < 0))
            << "task graph unit " << u << " has an invalid kernel range";
        waits[u] = unit.after.size();
        for (int v : unit.after) {
            ICHECK(v >= 0 && static_cast<size_t>(v) < u)
                << "task graph edges must point to earlier units";
            ++succ_begin[v + 1];
        }
    }
    for (size_t u = 0; u < num_units; ++u) {
        succ_begin[u + 1] += succ_begin[u];
    }
    std::vector<size_t> succ(succ_begin[num_units]);
    std::vector<size_t> fill(succ_begin.begin(), succ_begin.end() - 1);
    for (size_t u = 0; u < num_units; ++u) {
        for (int v : graph.units[u].after) {
            succ[fill[v]++] = u;
        }
    }

    // One ready set, earliest unit in serial order first. The mutex
    // orders a unit's completion before any successor starts, so the
    // successor sees every store of its predecessors.
    std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>>
        ready;
    for (size_t u = 0; u < num_units; ++u) {
        if (waits[u] == 0) {
            ready.push(u);
        }
    }
    size_t finished = 0;
    std::exception_ptr error;

    auto runner = [&](int64_t) {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
            cv.wait(lock, [&] {
                return error != nullptr || finished == num_units ||
                       !ready.empty();
            });
            if (error != nullptr || finished == num_units) {
                return;
            }
            size_t u = ready.top();
            ready.pop();
            lock.unlock();
            const TaskGraph::Unit &unit = graph.units[u];
            try {
                runUnit(graph, unit, *requests[unit.request], options);
            } catch (...) {
                lock.lock();
                if (error == nullptr) {
                    error = std::current_exception();
                }
                cv.notify_all();
                return;
            }
            lock.lock();
            ++finished;
            for (size_t i = succ_begin[u]; i < succ_begin[u + 1]; ++i) {
                if (--waits[succ[i]] == 0) {
                    ready.push(succ[i]);
                    cv.notify_one();
                }
            }
            if (finished == num_units) {
                cv.notify_all();
            }
        }
    };
    pool_->parallelFor(
        std::min<int64_t>(pool_->size(), static_cast<int64_t>(num_units)),
        runner);
    if (error != nullptr) {
        std::rethrow_exception(error);
    }
}

} // namespace engine
} // namespace sparsetir
