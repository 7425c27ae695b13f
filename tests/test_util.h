/**
 * @file
 * Helpers shared by the GoogleTest suites: deterministic random data,
 * the bitwise-equality predicate the reproducibility contract is
 * stated in, a per-process native artifact directory, a trace span
 * counter and the guard-strip mutation of the verifier corpus. One
 * definition, so what "bitwise identical" means cannot drift between
 * suites.
 */

#ifndef SPARSETIR_TESTS_TEST_UTIL_H_
#define SPARSETIR_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "ir/analysis.h"
#include "ir/functor.h"
#include "observe/trace.h"
#include "runtime/ndarray.h"
#include "support/rng.h"

namespace sparsetir {
namespace testutil {

inline std::vector<float>
randomVector(int64_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(static_cast<size_t>(size));
    for (auto &v : out) {
        v = static_cast<float>(rng.uniformReal() * 2.0 - 1.0);
    }
    return out;
}

/** Bitwise comparison over the arrays' raw storage. */
inline bool
bitwiseEqual(const runtime::NDArray &a, const runtime::NDArray &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.rawData(), b.rawData(),
                       static_cast<size_t>(a.numel()) *
                           a.elemBytes()) == 0;
}

/**
 * Point the native engines of this process at one fresh artifact
 * directory, `<prefix>XXXXXX`, made on the first call and removed
 * with its contents at process exit: a suite never loads .so files
 * persisted by other processes and leaves none behind. Returns
 * whether the directory was made, so a suite can isolate itself in
 * a namespace-scope initializer before any test runs.
 */
inline bool
isolateNativeCacheDir(const char *prefix)
{
    static char dir[256];
    static const bool done = [prefix] {
        std::snprintf(dir, sizeof(dir), "%sXXXXXX", prefix);
        if (::mkdtemp(dir) == nullptr) {
            return false;
        }
        ::setenv("SPARSETIR_NATIVE_CACHE_DIR", dir, 1);
        std::atexit([] {
            std::error_code ignored;
            std::filesystem::remove_all(dir, ignored);
        });
        return true;
    }();
    return done;
}

/**
 * Run `body` with the global trace recorder on (cleared before, off
 * and cleared after) and return the spans it recorded named `name`.
 */
inline std::vector<observe::TraceEvent>
collectSpans(const char *name, const std::function<void()> &body)
{
    observe::TraceRecorder &trace = observe::TraceRecorder::global();
    trace.setEnabled(true);
    trace.clear();
    body();
    trace.setEnabled(false);
    std::vector<observe::TraceEvent> spans;
    for (const auto &e : trace.collect()) {
        if (std::string(e.event.name) == name) {
            spans.push_back(e.event);
        }
    }
    trace.clear();
    return spans;
}

/** The number of spans named `name` that `body` recorded. */
inline size_t
countSpans(const char *name, const std::function<void()> &body)
{
    return collectSpans(name, body).size();
}

/**
 * Drops every `if` whose condition reads a variable named `needle`,
 * keeping its then arm: the verifier corpus's way to make a kernel
 * whose split-tail guard is load-bearing go out of bounds.
 */
class GuardStripper : public ir::StmtMutator
{
  public:
    explicit GuardStripper(std::string needle)
        : needle_(std::move(needle))
    {}

  protected:
    ir::Stmt
    mutateIfThenElse(const ir::IfThenElseNode *op,
                     const ir::Stmt &s) override
    {
        for (const ir::VarNode *var : ir::collectVars(op->cond)) {
            if (var->name == needle_) {
                return mutateStmt(op->thenBody);
            }
        }
        return StmtMutator::mutateIfThenElse(op, s);
    }

  private:
    std::string needle_;
};

} // namespace testutil
} // namespace sparsetir

#endif // SPARSETIR_TESTS_TEST_UTIL_H_
