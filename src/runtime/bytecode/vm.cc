#include "runtime/bytecode/vm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "runtime/ndarray.h"
#include "support/logging.h"

namespace sparsetir {
namespace runtime {
namespace bytecode {

namespace {

/** A double rounded to float32 (the float32 ops' result). */
inline double
round32(double v)
{
    return static_cast<double>(static_cast<float>(v));
}

/** Resolved storage of one slot (parameter array or scratch). */
struct SlotRt
{
    unsigned char *base = nullptr;
    int64_t numel = 0;
    ElemKind kind = ElemKind::kF32;
    int ebytes = 4;
    bool bound = false;
};

/**
 * Reusable execution state, leased per run from a thread-local arena.
 *
 * A task-graph dispatch executes many small (request x kernel x
 * grid-chunk) units per call, each a fresh VM run; constructing the
 * register files, slot table and scratch vectors per unit made heap
 * churn a visible per-unit cost. The arena keeps its capacity across
 * runs on the same thread, so steady-state execution allocates
 * nothing. Contents are reinitialized per run exactly as the old
 * per-run construction did (registers zeroed, slots cleared, scratch
 * zero-assigned by kAlloc), so results are unchanged bitwise.
 */
struct MachineStorage
{
    std::vector<int64_t> iregs;
    std::vector<double> fregs;
    std::vector<SlotRt> slots;
    std::vector<std::vector<unsigned char>> scratch;
    /** Guards against reentrant execute() clobbering a live run. */
    bool inUse = false;
};

struct Machine
{
    const Program &prog;
    std::vector<int64_t> &iregs;
    std::vector<double> &fregs;
    std::vector<SlotRt> &slots;
    /** Backing storage of scratch slots (index - numParamSlots). */
    std::vector<std::vector<unsigned char>> &scratch;
    bool windowed = false;
    int64_t blockBegin = 0;
    int64_t blockEnd = 0;

    Machine(const Program &p, MachineStorage &store)
        : prog(p), iregs(store.iregs), fregs(store.fregs),
          slots(store.slots), scratch(store.scratch)
    {
        ICHECK(!store.inUse)
            << "reentrant bytecode execution on one thread";
        store.inUse = true;
        iregs.assign(static_cast<size_t>(prog.numIRegs), 0);
        fregs.assign(static_cast<size_t>(prog.numFRegs), 0.0);
        slots.assign(prog.slots.size(), SlotRt());
        size_t num_scratch =
            prog.slots.size() -
            static_cast<size_t>(prog.numParamSlots);
        // Only grow: surviving inner vectors keep their capacity for
        // the next run's kAlloc, which zero-assigns before use.
        if (scratch.size() < num_scratch) {
            scratch.resize(num_scratch);
        }
        store_ = &store;
    }

    ~Machine() { store_->inUse = false; }

  private:
    MachineStorage *store_ = nullptr;

  public:

    /**
     * Access fault diagnosis, off the hot path. Unbound slots carry
     * numel 0, so the hot path needs one unsigned range compare per
     * access; this cold function reconstructs which invariant broke.
     */
    [[noreturn]] void
    faultAccess(int32_t index, int64_t offset) const
    {
        const SlotRt &s = slots[static_cast<size_t>(index)];
        const std::string &name =
            prog.slots[static_cast<size_t>(index)].name;
        ICHECK(s.bound) << "no storage bound for buffer '" << name
                        << "'";
        ICHECK_GE(offset, 0) << "negative offset into " << name;
        ICHECK(false) << "offset " << offset
                      << " out of bounds for buffer '" << name
                      << "' (numel " << s.numel << ")";
        std::abort();  // unreachable; ICHECK throws
    }

    /** Resolve a slot for an access at `offset`, bounds-checked. */
    const SlotRt &
    slotAt(int32_t index, int64_t offset) const
    {
        const SlotRt &s = slots[static_cast<size_t>(index)];
        if (static_cast<uint64_t>(offset) >=
            static_cast<uint64_t>(s.numel)) {
            faultAccess(index, offset);
        }
        return s;
    }

    int64_t
    loadInt(const SlotRt &s, int64_t offset, int32_t slot) const
    {
        const unsigned char *p =
            s.base + static_cast<size_t>(offset) * s.ebytes;
        switch (s.kind) {
          case ElemKind::kI32: {
            int32_t v;
            std::memcpy(&v, p, 4);
            return v;
          }
          case ElemKind::kI64: {
            int64_t v;
            std::memcpy(&v, p, 8);
            return v;
          }
          case ElemKind::kI16: {
            int16_t v;
            std::memcpy(&v, p, 2);
            return v;
          }
          case ElemKind::kI8: {
            int8_t v;
            std::memcpy(&v, p, 1);
            return v;
          }
          case ElemKind::kBool:
            return *p != 0;
          default:
            ICHECK(false)
                << "integer access to float buffer '"
                << prog.slots[static_cast<size_t>(slot)].name << "'";
        }
        return 0;
    }

    void
    storeInt(const SlotRt &s, int64_t offset, int64_t value,
             int32_t slot) const
    {
        unsigned char *p =
            s.base + static_cast<size_t>(offset) * s.ebytes;
        switch (s.kind) {
          case ElemKind::kI32: {
            int32_t v = static_cast<int32_t>(value);
            std::memcpy(p, &v, 4);
            break;
          }
          case ElemKind::kI64:
            std::memcpy(p, &value, 8);
            break;
          case ElemKind::kI16: {
            int16_t v = static_cast<int16_t>(value);
            std::memcpy(p, &v, 2);
            break;
          }
          case ElemKind::kI8: {
            int8_t v = static_cast<int8_t>(value);
            std::memcpy(p, &v, 1);
            break;
          }
          case ElemKind::kBool:
            *p = value != 0 ? 1 : 0;
            break;
          default:
            ICHECK(false)
                << "integer access to float buffer '"
                << prog.slots[static_cast<size_t>(slot)].name << "'";
        }
    }

    double
    loadFloat(const SlotRt &s, int64_t offset, int32_t slot) const
    {
        const unsigned char *p =
            s.base + static_cast<size_t>(offset) * s.ebytes;
        if (s.kind == ElemKind::kF32) {
            float v;
            std::memcpy(&v, p, 4);
            return v;
        }
        ICHECK(s.kind == ElemKind::kF64)
            << "float access to integer buffer '"
            << prog.slots[static_cast<size_t>(slot)].name << "'";
        double v;
        std::memcpy(&v, p, 8);
        return v;
    }

    void
    storeFloat(const SlotRt &s, int64_t offset, double value,
               int32_t slot) const
    {
        unsigned char *p =
            s.base + static_cast<size_t>(offset) * s.ebytes;
        if (s.kind == ElemKind::kF32) {
            // Round to storage width, like NDArray::setFloat.
            float v = static_cast<float>(value);
            std::memcpy(p, &v, 4);
            return;
        }
        ICHECK(s.kind == ElemKind::kF64)
            << "float access to integer buffer '"
            << prog.slots[static_cast<size_t>(slot)].name << "'";
        std::memcpy(p, &value, 8);
    }

    void
    exec()
    {
        const Instr *code = prog.code.data();
        // Local copies keep the register files in machine registers:
        // byte stores through slot pointers may alias the vectors'
        // control blocks, which would otherwise force a reload of
        // data() on every instruction.
        int64_t *const ir = iregs.data();
        double *const fr = fregs.data();
        size_t pc = 0;
        for (;;) {
            const Instr &in = code[pc];
            switch (in.op) {
              case Op::kJump:
                pc = static_cast<size_t>(in.imm);
                continue;
              case Op::kJumpIfZero:
                if (ir[in.a] == 0) {
                    pc = static_cast<size_t>(in.imm);
                    continue;
                }
                break;
              case Op::kJumpIfNonZero:
                if (ir[in.a] != 0) {
                    pc = static_cast<size_t>(in.imm);
                    continue;
                }
                break;
              case Op::kBranchGE:
                if (ir[in.a] >= ir[in.b]) {
                    pc = static_cast<size_t>(in.imm);
                    continue;
                }
                break;
              case Op::kBlockWindow: {
                int64_t mn = ir[in.c];
                int64_t ext = ir[in.d];
                int64_t lo = mn;
                int64_t hi = mn + ext;
                if (windowed) {
                    lo = mn + std::max<int64_t>(blockBegin, 0);
                    hi = std::min(hi, mn + blockEnd);
                }
                ir[in.a] = lo;
                ir[in.b] = hi;
                break;
              }
              case Op::kHalt:
                return;

              case Op::kIConst:
                ir[in.a] = in.imm;
                break;
              case Op::kIMov:
                ir[in.a] = ir[in.b];
                break;
              case Op::kIAdd:
                ir[in.a] = ir[in.b] + ir[in.c];
                break;
              case Op::kISub:
                ir[in.a] = ir[in.b] - ir[in.c];
                break;
              case Op::kIMul:
                ir[in.a] = ir[in.b] * ir[in.c];
                break;
              case Op::kIFloorDiv:
                ir[in.a] = floordivInt(ir[in.b], ir[in.c]);
                break;
              case Op::kIFloorMod:
                ir[in.a] =
                    ir[in.b] -
                    floordivInt(ir[in.b], ir[in.c]) * ir[in.c];
                break;
              case Op::kIMin:
                ir[in.a] = std::min(ir[in.b], ir[in.c]);
                break;
              case Op::kIMax:
                ir[in.a] = std::max(ir[in.b], ir[in.c]);
                break;
              case Op::kIAddImm:
                ir[in.a] = ir[in.b] + in.imm;
                break;
              case Op::kICmpEQ:
                ir[in.a] = ir[in.b] == ir[in.c] ? 1 : 0;
                break;
              case Op::kICmpNE:
                ir[in.a] = ir[in.b] != ir[in.c] ? 1 : 0;
                break;
              case Op::kICmpLT:
                ir[in.a] = ir[in.b] < ir[in.c] ? 1 : 0;
                break;
              case Op::kICmpLE:
                ir[in.a] = ir[in.b] <= ir[in.c] ? 1 : 0;
                break;
              case Op::kICmpGT:
                ir[in.a] = ir[in.b] > ir[in.c] ? 1 : 0;
                break;
              case Op::kICmpGE:
                ir[in.a] = ir[in.b] >= ir[in.c] ? 1 : 0;
                break;
              case Op::kIBool:
                ir[in.a] = ir[in.b] != 0 ? 1 : 0;
                break;
              case Op::kIEqz:
                ir[in.a] = ir[in.b] == 0 ? 1 : 0;
                break;
              case Op::kIAbs:
                ir[in.a] = std::llabs(ir[in.b]);
                break;

              case Op::kFConst: {
                double v;
                std::memcpy(&v, &in.imm, sizeof(v));
                fr[in.a] = v;
                break;
              }
              case Op::kFMov:
                fr[in.a] = fr[in.b];
                break;
              case Op::kFAdd:
                fr[in.a] = fr[in.b] + fr[in.c];
                break;
              case Op::kFSub:
                fr[in.a] = fr[in.b] - fr[in.c];
                break;
              case Op::kFMul:
                fr[in.a] = fr[in.b] * fr[in.c];
                break;
              case Op::kFDiv:
                fr[in.a] = fr[in.b] / fr[in.c];
                break;
              case Op::kFMin:
                fr[in.a] = std::min(fr[in.b], fr[in.c]);
                break;
              case Op::kFMax:
                fr[in.a] = std::max(fr[in.b], fr[in.c]);
                break;
              case Op::kFCmpEQ:
                ir[in.a] = fr[in.b] == fr[in.c] ? 1 : 0;
                break;
              case Op::kFCmpNE:
                ir[in.a] = fr[in.b] != fr[in.c] ? 1 : 0;
                break;
              case Op::kFCmpLT:
                ir[in.a] = fr[in.b] < fr[in.c] ? 1 : 0;
                break;
              case Op::kFCmpLE:
                ir[in.a] = fr[in.b] <= fr[in.c] ? 1 : 0;
                break;
              case Op::kFCmpGT:
                ir[in.a] = fr[in.b] > fr[in.c] ? 1 : 0;
                break;
              case Op::kFCmpGE:
                ir[in.a] = fr[in.b] >= fr[in.c] ? 1 : 0;
                break;
              case Op::kFAbs:
                fr[in.a] = std::fabs(fr[in.b]);
                break;
              case Op::kFExp:
                fr[in.a] = std::exp(fr[in.b]);
                break;
              case Op::kFLog:
                fr[in.a] = std::log(fr[in.b]);
                break;
              case Op::kFSqrt:
                fr[in.a] = std::sqrt(fr[in.b]);
                break;

              case Op::kFAdd32:
                fr[in.a] = round32(fr[in.b] + fr[in.c]);
                break;
              case Op::kFSub32:
                fr[in.a] = round32(fr[in.b] - fr[in.c]);
                break;
              case Op::kFMul32:
                fr[in.a] = round32(fr[in.b] * fr[in.c]);
                break;
              case Op::kFDiv32:
                fr[in.a] = round32(fr[in.b] / fr[in.c]);
                break;
              case Op::kFMin32:
                fr[in.a] = round32(std::min(fr[in.b], fr[in.c]));
                break;
              case Op::kFMax32:
                fr[in.a] = round32(std::max(fr[in.b], fr[in.c]));
                break;
              case Op::kFAbs32:
                fr[in.a] = round32(std::fabs(fr[in.b]));
                break;
              case Op::kFExp32:
                fr[in.a] = round32(std::exp(fr[in.b]));
                break;
              case Op::kFLog32:
                fr[in.a] = round32(std::log(fr[in.b]));
                break;
              case Op::kFSqrt32:
                fr[in.a] = round32(std::sqrt(fr[in.b]));
                break;
              case Op::kFRound32:
                fr[in.a] = round32(fr[in.b]);
                break;

              case Op::kCastIF:
                fr[in.a] = static_cast<double>(ir[in.b]);
                break;
              case Op::kCastIF32:
                fr[in.a] = round32(static_cast<double>(ir[in.b]));
                break;
              case Op::kCastFI:
                ir[in.a] = static_cast<int64_t>(fr[in.b]);
                break;

              case Op::kLoadI: {
                int64_t off = ir[in.c];
                const SlotRt &s = slotAt(in.b, off);
                ir[in.a] = loadInt(s, off, in.b);
                break;
              }
              case Op::kLoadF: {
                int64_t off = ir[in.c];
                const SlotRt &s = slotAt(in.b, off);
                fr[in.a] = loadFloat(s, off, in.b);
                break;
              }
              case Op::kStoreI: {
                int64_t off = ir[in.c];
                const SlotRt &s = slotAt(in.b, off);
                storeInt(s, off, ir[in.a], in.b);
                break;
              }
              case Op::kStoreF: {
                int64_t off = ir[in.c];
                const SlotRt &s = slotAt(in.b, off);
                storeFloat(s, off, fr[in.a], in.b);
                break;
              }
              case Op::kLowerBound:
              case Op::kUpperBound: {
                const SlotRt &s = slots[static_cast<size_t>(in.b)];
                ICHECK(s.bound)
                    << "no storage bound for buffer '"
                    << prog.slots[static_cast<size_t>(in.b)].name
                    << "'";
                int64_t lo = ir[in.c];
                int64_t hi = ir[in.d];
                int64_t val = ir[in.imm];
                ICHECK_GE(lo, 0);
                ICHECK_LE(hi, s.numel);
                bool upper = in.op == Op::kUpperBound;
                while (lo < hi) {
                    int64_t mid = lo + (hi - lo) / 2;
                    int64_t elem = loadInt(s, mid, in.b);
                    bool go_right = upper ? elem <= val : elem < val;
                    if (go_right) {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                ir[in.a] = lo;
                break;
              }
              case Op::kAtomicAddI: {
                int64_t off = ir[in.c];
                const SlotRt &s = slotAt(in.b, off);
                int64_t old = loadInt(s, off, in.b);
                storeInt(s, off, old + ir[in.d], in.b);
                ir[in.a] = old;
                break;
              }
              case Op::kAtomicAddF: {
                int64_t off = ir[in.c];
                const SlotRt &s = slotAt(in.b, off);
                double old = loadFloat(s, off, in.b);
                storeFloat(s, off, old + fr[in.d], in.b);
                fr[in.a] = old;
                break;
              }
              case Op::kAlloc: {
                ElemKind kind = static_cast<ElemKind>(in.a);
                int64_t n = ir[in.c];
                ICHECK_GE(n, 0) << "negative scratch allocation";
                size_t bytes = static_cast<size_t>(n) *
                               elemKindBytes(kind);
                auto &store = scratch[static_cast<size_t>(
                    in.b - prog.numParamSlots)];
                // assign() reuses capacity across loop iterations and
                // zero-fills, matching a fresh NDArray per entry.
                store.assign(bytes, 0);
                SlotRt &s = slots[static_cast<size_t>(in.b)];
                s.base = store.data();
                s.numel = n;
                s.kind = kind;
                s.ebytes = elemKindBytes(kind);
                s.bound = true;
                break;
              }
            }
            ++pc;
        }
    }
};

} // namespace

void
execute(const Program &program, const Bindings &bindings,
        const RunOptions &options)
{
    if (options.blockEnd >= 0) {
        USER_CHECK(program.blockWindowPc >= 0)
            << "block-windowed execution of '" << program.name
            << "': no blockIdx.x-bound loop";
    }
    static thread_local MachineStorage tls_machine_storage;
    Machine m(program, tls_machine_storage);
    m.windowed = options.blockEnd >= 0;
    m.blockBegin = options.blockBegin;
    m.blockEnd = options.blockEnd;
    for (int32_t i = 0; i < program.numParamSlots; ++i) {
        auto it = bindings.arrays.find(program.slots[i].name);
        if (it == bindings.arrays.end()) {
            continue;  // lazy: faults only if an instruction touches it
        }
        NDArray *arr = it->second;
        SlotRt &s = m.slots[static_cast<size_t>(i)];
        s.base = static_cast<unsigned char *>(arr->rawData());
        s.numel = arr->numel();
        s.kind = elemKindOfDtype(arr->dtype());
        s.ebytes = arr->elemBytes();
        s.bound = true;
    }
    for (const ScalarParam &sp : program.scalarParams) {
        auto it = bindings.scalars.find(sp.name);
        ICHECK(it != bindings.scalars.end())
            << "unbound variable '" << sp.name << "'";
        m.iregs[sp.reg] = it->second;
    }
    for (const auto &[reg, value] : program.iconsts) {
        m.iregs[static_cast<size_t>(reg)] = value;
    }
    for (const auto &[reg, bits] : program.fconsts) {
        std::memcpy(&m.fregs[static_cast<size_t>(reg)], &bits,
                    sizeof(double));
    }
    m.exec();
}

} // namespace bytecode
} // namespace runtime
} // namespace sparsetir
