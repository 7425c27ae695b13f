#include "runtime/native/native_compiler.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
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
 * SPARSETIR_NATIVE_CC command (default "cc") plus fixed flags. It is
 * folded into every artifact's meta string and source hash, so an
 * artifact built by another compiler or with other flags is rebuilt,
 * never loaded. -ffp-contract=off comes last so it wins over the
 * command's own flags: a contracted multiply-add rounds once where
 * the interpreter rounds twice, and GNU C contracts by default on any
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

// ---------------------------------------------------------------------
// Artifact loading
// ---------------------------------------------------------------------

/**
 * dlopen `so_path` and resolve entry + meta; succeeds only when the
 * embedded meta string equals `expected_meta` (same source hash can
 * only come from the same source, but the meta check additionally
 * rejects truncated/corrupted files whose dlopen accidentally
 * succeeds and artifacts from foreign builds at a colliding name).
 */
std::shared_ptr<void>
tryLoad(const std::string &so_path, const std::string &expected_meta,
        KernelEntryFn *entry_out)
{
    void *raw = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (raw == nullptr) {
        return nullptr;
    }
    std::shared_ptr<void> handle(raw,
                                 [](void *h) { ::dlclose(h); });
    const char *meta =
        static_cast<const char *>(::dlsym(raw, kMetaSymbol));
    if (meta == nullptr || expected_meta != meta) {
        return nullptr;
    }
    auto entry = reinterpret_cast<KernelEntryFn>(
        ::dlsym(raw, kEntrySymbol));
    if (entry == nullptr) {
        return nullptr;
    }
    *entry_out = entry;
    return handle;
}

std::mutex &
cacheMutex()
{
    static std::mutex mu;
    return mu;
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

std::shared_ptr<const NativeKernel>
compileNative(const ir::PrimFunc &func, const std::string &key_tag)
{
    std::string command = compilerCommand();
    std::string build_tag = key_tag + ";cc=" + command;
    EmitResult emitted = emitC(func, build_tag);
    std::string expected_meta =
        "sparsetir-native;abi=" + std::to_string(kNativeAbiVersion) +
        ";tag=" + build_tag + ";kernel=" + emitted.name;
    std::string dir = nativeCacheDir();
    std::string so_path =
        dir + "/st_" + hex16(fnv1a(emitted.source)) + ".so";

    auto kernel = std::make_shared<NativeKernel>();
    kernel->name = emitted.name;
    kernel->slotNames = std::move(emitted.slotNames);
    kernel->numParamSlots = emitted.numParamSlots;
    kernel->scalarNames = std::move(emitted.scalarNames);
    kernel->hasWindow = emitted.hasWindow;
    kernel->soPath = so_path;

    // One process-wide lock around probe-or-build: racing promotions
    // of the same kernel produce exactly one compiler invocation, and
    // the loser loads the winner's installed artifact.
    std::lock_guard<std::mutex> lock(cacheMutex());

    kernel->entry = nullptr;
    kernel->handle = tryLoad(so_path, expected_meta, &kernel->entry);
    if (kernel->handle != nullptr) {
        kernel->diskHit = true;
        return kernel;
    }
    // Not loadable: either absent or corrupted/stale. Drop any stale
    // file so the rename below installs a fresh artifact.
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
        out << emitted.source;
        USER_CHECK(out.good()) << "cannot write native kernel source '"
                               << c_path << "'";
    }

    std::string shell = command + " -o '" + tmp_so + "' '" + c_path +
                        "' 2>'" + err_path + "'";
    int rc;
    {
        SPARSETIR_TRACE_SCOPE("native", "native.compile");
        rc = std::system(shell.c_str());
    }
    std::string cc_err = readFile(err_path);
    ::unlink(c_path.c_str());
    ::unlink(err_path.c_str());
    if (rc != 0) {
        ::unlink(tmp_so.c_str());
        USER_CHECK(false)
            << "native compilation of '" << kernel->name
            << "' failed (command: " << command << "): " << cc_err;
    }
    compileCounter().fetch_add(1, std::memory_order_relaxed);
    // Atomic install: concurrent processes either see the old file or
    // the complete new one, never a partial write.
    USER_CHECK(std::rename(tmp_so.c_str(), so_path.c_str()) == 0)
        << "cannot install native artifact '" << so_path
        << "': " << std::strerror(errno);

    kernel->handle = tryLoad(so_path, expected_meta, &kernel->entry);
    ICHECK(kernel->handle != nullptr)
        << "freshly built native artifact '" << so_path
        << "' failed to load";
    kernel->diskHit = false;
    return kernel;
}

void
execute(const NativeKernel &kernel, const Bindings &bindings,
        const RunOptions &options)
{
    if (options.blockEnd >= 0) {
        USER_CHECK(kernel.hasWindow)
            << "block-windowed execution of '" << kernel.name
            << "': no blockIdx.x-bound loop";
    }

    std::vector<StSlot> slots(kernel.slotNames.size());
    for (int i = 0; i < kernel.numParamSlots; ++i) {
        // Lazy binding, like the VM: a missing parameter array only
        // faults when the kernel actually touches it.
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
    std::vector<int64_t> scalars;
    scalars.reserve(kernel.scalarNames.size());
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
        return;
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
}

} // namespace native
} // namespace runtime
} // namespace sparsetir
