#include "runtime/native/native_compiler.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "observe/trace.h"
#include "runtime/bytecode/program.h"
#include "runtime/native/c_emitter.h"
#include "support/logging.h"

namespace sparsetir {
namespace runtime {
namespace native {

namespace {

// ---------------------------------------------------------------------
// Cache directory + filenames
// ---------------------------------------------------------------------

/** FNV-1a over the emitted source; the cache filename. A local copy
 *  rather than the engine's fingerprint helper — runtime/ must not
 *  depend on engine/. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** mkdir -p. Races with other processes are fine (EEXIST ignored). */
void
makeDirs(const std::string &path)
{
    std::string partial;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t next = path.find('/', pos);
        if (next == std::string::npos) {
            next = path.size();
        }
        partial = path.substr(0, next);
        if (!partial.empty() && partial != "/") {
            if (::mkdir(partial.c_str(), 0700) != 0 &&
                errno != EEXIST) {
                USER_CHECK(false)
                    << "cannot create native cache directory '"
                    << partial << "': " << std::strerror(errno);
            }
        }
        pos = next + 1;
    }
}

/**
 * The full compiler invocation minus file arguments: the
 * SPARSETIR_NATIVE_CC command (default "cc") plus fixed flags, split
 * on whitespace into argv when the compiler is started. It is folded
 * into every module's meta string and source hash, so an artifact
 * built by another compiler or with other flags is rebuilt, never
 * loaded. -ffp-contract=off comes last so it wins over the command's
 * own flags: a contracted multiply-add rounds once where the
 * interpreter rounds twice, and GNU C contracts by default on any
 * target with FMA (e.g. under -march=native).
 */
std::string
compilerCommand()
{
    const char *cc = std::getenv("SPARSETIR_NATIVE_CC");
    std::string command = (cc != nullptr && cc[0] != '\0') ? cc : "cc";
    return command + " -O2 -fPIC -shared -ffp-contract=off";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Widens the calling thread's CPU affinity to its own mask joined
 * with the process's (its main thread's) for the guard's lifetime,
 * then restores it. A child started by posix_spawn inherits the
 * affinity of the thread that spawns it, and a promotion runs on a
 * pool worker pinned to one CPU (engine::ThreadPool): without this,
 * `cc` would be confined to that CPU. Nothing changes when a mask
 * cannot be read.
 */
class WidenedAffinity
{
  public:
    WidenedAffinity()
    {
        cpu_set_t process;
        CPU_ZERO(&saved_);
        CPU_ZERO(&process);
        if (::pthread_getaffinity_np(::pthread_self(), sizeof saved_,
                                     &saved_) != 0 ||
            ::sched_getaffinity(::getpid(), sizeof process, &process) !=
                0) {
            return;
        }
        cpu_set_t wide;
        CPU_OR(&wide, &saved_, &process);
        widened_ = ::pthread_setaffinity_np(::pthread_self(), sizeof wide,
                                            &wide) == 0;
    }

    ~WidenedAffinity()
    {
        if (widened_) {
            ::pthread_setaffinity_np(::pthread_self(), sizeof saved_,
                                     &saved_);
        }
    }

    WidenedAffinity(const WidenedAffinity &) = delete;
    WidenedAffinity &operator=(const WidenedAffinity &) = delete;

  private:
    cpu_set_t saved_;
    bool widened_ = false;
};

/**
 * Run `argv` (no shell) with stdout and stderr sent to `log_path` and
 * wait for it. Returns "" when it exits with status 0, else what went
 * wrong: the spawn error, the exit status or the terminating signal.
 * The child may run on every CPU of the process (WidenedAffinity).
 */
std::string
runCompiler(const std::vector<std::string> &argv,
            const std::string &log_path)
{
    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const std::string &arg : argv) {
        args.push_back(const_cast<char *>(arg.c_str()));
    }
    args.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                       log_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC,
                                       0600);
    ::posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO,
                                       STDOUT_FILENO);
    pid_t pid = 0;
    int rc = 0;
    {
        WidenedAffinity all_cpus;
        rc = ::posix_spawnp(&pid, args[0], &actions, nullptr, args.data(),
                            environ);
    }
    ::posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        return "cannot start '" + argv[0] + "': " + std::strerror(rc);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            return std::string("waitpid failed: ") +
                   std::strerror(errno);
        }
    }
    if (WIFEXITED(status)) {
        return WEXITSTATUS(status) == 0
                   ? ""
                   : "exit status " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        return "killed by signal " + std::to_string(WTERMSIG(status));
    }
    return "wait status " + std::to_string(status);
}

// ---------------------------------------------------------------------
// Artifact loading
// ---------------------------------------------------------------------

/**
 * dlopen `so_path` and resolve the entry table; succeeds only when
 * the embedded meta string equals `expected_meta` (same source hash
 * can only come from the same source, but the meta check additionally
 * rejects truncated/corrupted files whose dlopen accidentally
 * succeeds and artifacts from foreign builds at a colliding name).
 * On failure returns null and says why in `*why`.
 */
std::shared_ptr<void>
tryLoad(const std::string &so_path, const std::string &expected_meta,
        const KernelEntryFn **entries_out, std::string *why)
{
    void *raw = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (raw == nullptr) {
        const char *err = ::dlerror();
        *why = err != nullptr ? err : "dlopen failed";
        return nullptr;
    }
    std::shared_ptr<void> handle(raw,
                                 [](void *h) { ::dlclose(h); });
    const char *meta =
        static_cast<const char *>(::dlsym(raw, kMetaSymbol));
    if (meta == nullptr || expected_meta != meta) {
        *why = "meta string mismatch";
        return nullptr;
    }
    auto entries = static_cast<const KernelEntryFn *>(
        ::dlsym(raw, kEntryTableSymbol));
    if (entries == nullptr) {
        *why = "no entry table";
        return nullptr;
    }
    *entries_out = entries;
    return handle;
}

/**
 * The lock of one installed-artifact path. Racing builds of the same
 * module serialize on it (exactly one compiler run; the losers load
 * the winner's file), while builds of other modules proceed.
 */
std::shared_ptr<std::mutex>
pathLock(const std::string &so_path)
{
    static std::mutex mu;
    static std::unordered_map<std::string, std::weak_ptr<std::mutex>>
        locks;
    std::lock_guard<std::mutex> guard(mu);
    std::weak_ptr<std::mutex> &slot = locks[so_path];
    std::shared_ptr<std::mutex> lock = slot.lock();
    if (lock == nullptr) {
        // A new path: drop the entries no build holds any more.
        for (auto it = locks.begin(); it != locks.end();) {
            it = it->second.expired() && it->first != so_path
                     ? locks.erase(it)
                     : std::next(it);
        }
        lock = std::make_shared<std::mutex>();
        locks[so_path] = lock;
    }
    return lock;
}

std::atomic<uint64_t> &
compileCounter()
{
    static std::atomic<uint64_t> count{0};
    return count;
}

std::atomic<uint64_t> &
tempCounter()
{
    static std::atomic<uint64_t> count{0};
    return count;
}

} // namespace

std::string
nativeCacheDir()
{
    const char *dir = std::getenv("SPARSETIR_NATIVE_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') {
        return dir;
    }
    return "/tmp/sparsetir-native-" + std::to_string(::getuid());
}

uint64_t
nativeCompileCount()
{
    return compileCounter().load(std::memory_order_relaxed);
}

bool
nativeEnabledByEnv()
{
    const char *value = std::getenv("SPARSETIR_NATIVE");
    return value != nullptr && value[0] != '\0' &&
           std::string(value) != "0";
}

std::vector<std::shared_ptr<const NativeKernel>>
compileNativeModule(const std::vector<ir::PrimFunc> &funcs,
                    const std::string &key_tag,
                    std::vector<std::string> *rejected,
                    const std::vector<const KernelProof *> &proofs)
{
    std::string command = compilerCommand();
    ModuleEmitResult module =
        emitModule(funcs, key_tag + ";cc=" + command, proofs);
    if (rejected != nullptr) {
        *rejected = module.rejected;
    }
    std::vector<std::shared_ptr<const NativeKernel>> kernels(funcs.size());
    if (module.numEntries == 0) {
        return kernels;
    }
    std::string dir = nativeCacheDir();
    std::string so_path =
        dir + "/st_" + hex16(fnv1a(module.source)) + ".so";

    // Probe-or-build under the path's own lock: racing promotions of
    // the same module produce exactly one compiler run, and the loser
    // loads the winner's installed artifact.
    std::shared_ptr<std::mutex> path_mu = pathLock(so_path);
    std::lock_guard<std::mutex> lock(*path_mu);

    const KernelEntryFn *entries = nullptr;
    std::string why;
    std::shared_ptr<void> handle =
        tryLoad(so_path, module.meta, &entries, &why);
    bool disk_hit = handle != nullptr;
    if (!disk_hit) {
        // Not loadable: either absent or corrupted/stale. Drop any
        // stale file so the rename below installs a fresh artifact.
        ::unlink(so_path.c_str());
        makeDirs(dir);

        uint64_t tag = tempCounter().fetch_add(1);
        std::string stem = dir + "/st_build_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           "_" + std::to_string(tag);
        std::string c_path = stem + ".c";
        std::string tmp_so = stem + ".so";
        std::string err_path = stem + ".err";
        {
            std::ofstream out(c_path, std::ios::binary);
            out << module.source;
            USER_CHECK(out.good()) << "cannot write native module source '"
                                   << c_path << "'";
        }
        std::vector<std::string> args;
        std::istringstream words(command);
        for (std::string word; words >> word;) {
            args.push_back(word);
        }
        args.insert(args.end(), {"-o", tmp_so, c_path});
        std::string failure;
        {
            SPARSETIR_TRACE_SCOPE("native", "native.compile");
            failure = runCompiler(args, err_path);
        }
        std::string cc_err = readFile(err_path);
        ::unlink(c_path.c_str());
        ::unlink(err_path.c_str());
        if (failure.empty()) {
            compileCounter().fetch_add(1, std::memory_order_relaxed);
            if (::access(tmp_so.c_str(), F_OK) != 0) {
                failure = "exit status 0 but no output file";
            }
        }
        if (!failure.empty()) {
            ::unlink(tmp_so.c_str());
            USER_CHECK(false)
                << "native compilation of " << module.numEntries
                << " kernel(s) failed (" << failure
                << "; command: " << command << "): " << cc_err;
        }
        // Atomic install: concurrent processes either see the old file
        // or the complete new one, never a partial write.
        USER_CHECK(std::rename(tmp_so.c_str(), so_path.c_str()) == 0)
            << "cannot install native artifact '" << so_path
            << "': " << std::strerror(errno);
        handle = tryLoad(so_path, module.meta, &entries, &why);
        if (handle == nullptr) {
            ::unlink(so_path.c_str());
            USER_CHECK(false) << "freshly built native artifact '"
                              << so_path << "' failed to load: " << why;
        }
    }

    int next = 0;
    for (size_t i = 0; i < funcs.size(); ++i) {
        if (!module.rejected[i].empty()) {
            continue;
        }
        EmitResult &emitted = module.kernels[i];
        auto kernel = std::make_shared<NativeKernel>();
        kernel->name = std::move(emitted.name);
        kernel->entry = entries[next++];
        kernel->handle = handle;
        kernel->slotNames = std::move(emitted.slotNames);
        kernel->numParamSlots = emitted.numParamSlots;
        kernel->usedParamSlots = std::move(emitted.usedParamSlots);
        kernel->scalarNames = std::move(emitted.scalarNames);
        kernel->hasWindow = emitted.hasWindow;
        kernel->proven = emitted.proven;
        kernel->soPath = so_path;
        kernel->diskHit = disk_hit;
        kernels[i] = std::move(kernel);
    }
    return kernels;
}

std::shared_ptr<const NativeKernel>
compileNative(const ir::PrimFunc &func, const std::string &key_tag)
{
    std::vector<std::string> rejected;
    auto kernels = compileNativeModule({func}, key_tag, &rejected);
    if (kernels[0] == nullptr) {
        throw UserError(rejected[0]);
    }
    return kernels[0];
}

bool
execute(const NativeKernel &kernel, const Bindings &bindings,
        const RunOptions &options)
{
    if (options.blockEnd >= 0) {
        USER_CHECK(kernel.hasWindow)
            << "block-windowed execution of '" << kernel.name
            << "': no blockIdx.x-bound loop";
    }

    // Per-thread tables, reused across executions: no allocation
    // once they have grown. A kernel never calls back into the host,
    // so no execution on this thread can be running underneath.
    thread_local std::vector<StSlot> slots;
    thread_local std::vector<int64_t> scalars;
    slots.assign(kernel.slotNames.size(), StSlot{});
    // Lazy binding, like the VM: only the parameter slots the kernel
    // accesses are bound, and a missing one faults only when touched.
    for (int i : kernel.usedParamSlots) {
        auto it = bindings.arrays.find(kernel.slotNames[i]);
        if (it == bindings.arrays.end()) {
            continue;
        }
        NDArray *arr = it->second;
        StSlot &s = slots[i];
        s.base = static_cast<unsigned char *>(arr->rawData());
        s.numel = arr->numel();
        s.kind = static_cast<int32_t>(
            bytecode::elemKindOfDtype(arr->dtype()));
        s.ebytes = arr->elemBytes();
        s.bound = 1;
    }
    scalars.clear();
    for (const auto &name : kernel.scalarNames) {
        auto it = bindings.scalars.find(name);
        ICHECK(it != bindings.scalars.end())
            << "unbound variable '" << name << "'";
        scalars.push_back(it->second);
    }

    StCtx ctx;
    ctx.slots = slots.data();
    ctx.scalars = scalars.data();
    ctx.blockBegin = options.blockBegin;
    ctx.blockEnd = options.blockEnd;

    int32_t rc = kernel.entry(&ctx);

    // Scratch slots the kernel calloc'd (st_alloc) are released here on
    // success and fault paths alike; stack scratch leaves base null.
    // Metadata survives either way for the messages below.
    for (size_t i = static_cast<size_t>(kernel.numParamSlots);
         i < slots.size(); ++i) {
        std::free(slots[i].base);
        slots[i].base = nullptr;
    }

    if (rc == ST_OK) {
        return true;
    }
    if (rc == ST_UNPROVEN) {
        return false;
    }
    int32_t fs = ctx.faultSlot;
    bool has_slot =
        fs >= 0 && fs < static_cast<int32_t>(slots.size());
    const std::string slot_name =
        has_slot ? kernel.slotNames[fs] : std::string("?");
    switch (rc) {
      case ST_FAULT_ACCESS:
        if (has_slot && slots[fs].bound == 0) {
            ICHECK(false)
                << "no storage bound for buffer '" << slot_name << "'";
        }
        ICHECK_GE(ctx.faultOffset, 0)
            << "negative offset into " << slot_name;
        ICHECK(false) << "offset " << ctx.faultOffset
                      << " out of bounds for buffer '" << slot_name
                      << "' (numel "
                      << (has_slot ? slots[fs].numel : 0) << ")";
        break;
      case ST_FAULT_DIV0:
        ICHECK(false) << "floordiv/floormod by zero in '"
                      << kernel.name << "'";
        break;
      case ST_FAULT_CLASS:
        if (has_slot &&
            (slots[fs].kind ==
                 static_cast<int32_t>(bytecode::ElemKind::kF32) ||
             slots[fs].kind ==
                 static_cast<int32_t>(bytecode::ElemKind::kF64))) {
            ICHECK(false)
                << "integer access to float buffer '" << slot_name
                << "'";
        }
        ICHECK(false) << "float access to integer buffer '"
                      << slot_name << "'";
        break;
      case ST_FAULT_SEARCH:
        ICHECK(false) << "binary search range out of bounds for "
                         "buffer '"
                      << slot_name << "' (at " << ctx.faultOffset
                      << ")";
        break;
      case ST_FAULT_NEGALLOC:
        ICHECK(false) << "negative scratch allocation for buffer '"
                      << slot_name << "' (" << ctx.faultOffset << ")";
        break;
      case ST_FAULT_OOM:
        ICHECK(false) << "scratch allocation of " << ctx.faultOffset
                      << " elements for buffer '" << slot_name
                      << "' failed";
        break;
      default:
        ICHECK(false) << "native kernel '" << kernel.name
                      << "' returned unknown fault code " << rc;
    }
    return false;  // unreachable; every fault above throws
}

} // namespace native
} // namespace runtime
} // namespace sparsetir
