/**
 * @file
 * Format decomposition (paper §3.2.1 and Appendix A).
 *
 * A FormatRewriteRule describes a target format: its axes, the buffer
 * over them, the mapping from original axes to new axes and the affine
 * index maps f / f^-1 between the original and rewritten buffer.
 * decomposeFormat applies a list of rules to a Stage I function: it
 * declares the new axes/buffers, generates one copy iteration per rule
 * (original -> new format, with absent coordinates reading as zero so
 * padding falls out naturally) and rewrites each compute iteration
 * touching the target buffer into one iteration per rule.
 */

#ifndef SPARSETIR_TRANSFORM_FORMAT_DECOMPOSE_H_
#define SPARSETIR_TRANSFORM_FORMAT_DECOMPOSE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/prim_func.h"

namespace sparsetir {
namespace transform {

/** Declarative description of one target format. */
struct FormatRewriteRule
{
    /** Rule name; suffixes generated iterations ("bsr_2", "ell_4"). */
    std::string name;
    /** Name of the sparse buffer to rewrite (e.g. "A"). */
    std::string bufferName;
    /**
     * Axes of the new format, in buffer dimension order. A scalar Var
     * among an axis's lengths becomes a parameter of the decomposed
     * function.
     */
    std::vector<ir::Axis> newAxes;
    /** New sparse buffer composed of newAxes. */
    ir::Buffer newBuffer;
    /**
     * Original axis name -> new axes names replacing it in iteration
     * order (e.g. {"I": ["IO","II"], "J": ["JO","JI"]}).
     */
    std::map<std::string, std::vector<std::string>> axisMap;
    /** Affine map from new coordinates to original coordinates. */
    std::function<std::vector<ir::Expr>(const std::vector<ir::Expr> &)>
        invIndexMap;
    /** Affine map from original coordinates to new coordinates. */
    std::function<std::vector<ir::Expr>(const std::vector<ir::Expr> &)>
        fwdIndexMap;
};

/** Result of a decomposition. */
struct DecomposeResult
{
    /** Rewritten function: copy iterations + per-format compute. */
    ir::PrimFunc func;
    /** Names of the generated copy iterations. */
    std::vector<std::string> copyIterNames;
    /** Names of the generated compute iterations. */
    std::vector<std::string> computeIterNames;
};

/**
 * Apply `rules` to `func` (Stage I). Each sparse iteration whose body
 * accesses the target buffer is replaced by one iteration per rule;
 * iterations not touching the buffer are kept. Format conversion is
 * the special case of a single rule.
 */
DecomposeResult decomposeFormat(const ir::PrimFunc &func,
                                const std::vector<FormatRewriteRule> &rules);

/**
 * Split a decomposed function into a preprocessing function holding
 * the copy iterations (run once for a stationary sparse structure)
 * and a compute function holding the rest (paper §3.2.1).
 */
std::pair<ir::PrimFunc, ir::PrimFunc> splitPreprocess(
    const ir::PrimFunc &func, const std::vector<std::string> &copy_names);

} // namespace transform
} // namespace sparsetir

#endif // SPARSETIR_TRANSFORM_FORMAT_DECOMPOSE_H_
