/**
 * @file
 * BytecodeVM: dispatch-loop execution of compiled Programs.
 *
 * Execution state is two flat register files plus a resolved slot
 * table (raw pointer, element kind, extent per buffer). Binding
 * resolution happens once per run — name lookups leave the hot path
 * entirely — and block windows apply through the program's
 * kBlockWindow instruction, so one Program serves every chunk of a
 * grid-split parallel execution.
 *
 * Accesses are bounds-checked against the bound extent (InternalError
 * on violation, like the interpreter); unbound buffer parameters fault
 * only when an instruction touches their slot, preserving the
 * interpreter's lazy-binding convention. Scalar parameters referenced
 * anywhere in the program must be bound up front.
 */

#ifndef SPARSETIR_RUNTIME_BYTECODE_VM_H_
#define SPARSETIR_RUNTIME_BYTECODE_VM_H_

#include "runtime/bytecode/program.h"
#include "runtime/interpreter.h"

namespace sparsetir {
namespace runtime {
namespace bytecode {

/**
 * Execute `program` over `bindings`, honoring options.blockBegin /
 * blockEnd (options.backend is ignored — this IS the bytecode
 * backend). Results are bitwise identical to interpreting the source
 * function with the same options.
 */
void execute(const Program &program, const Bindings &bindings,
             const RunOptions &options = RunOptions());

} // namespace bytecode
} // namespace runtime
} // namespace sparsetir

#endif // SPARSETIR_RUNTIME_BYTECODE_VM_H_
