/**
 * @file
 * Stage I builders for the paper's operators: SpMM (Figure 3), SDDMM,
 * BSR SpMM, SR-BCRS SpMM (Figure 18) and the relational
 * gather-matmul-scatter RGMS (§4.4), plus the ELL format-rewrite rule
 * factories used for hyb(c, k) decomposition (Appendix A).
 */

#ifndef SPARSETIR_CORE_OPS_H_
#define SPARSETIR_CORE_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ir/prim_func.h"
#include "transform/format_decompose.h"

namespace sparsetir {
namespace core {

/**
 * CSR SpMM Stage I program (paper Figure 3): C = A @ B. With `feat`
 * > 0 the feature axis has that constant length, so every loop
 * extent and buffer shape over it is a constant; `feat_size` stays a
 * parameter the body no longer reads.
 */
ir::PrimFunc buildSpmm(int64_t feat = 0);

/**
 * SDDMM Stage I program: B_out = A ⊙ (X @ Y). When `fuse_ij` the
 * spatial (I, J) axes are fused (paper Figure 6).
 */
ir::PrimFunc buildSddmm(bool fuse_ij);

/**
 * BSR SpMM Stage I program with a constant block size: C = A @ B where
 * A is stored in BSR(block). Block count and dims are scalar params.
 */
ir::PrimFunc buildBsrSpmm(int block_size);

/**
 * BSR SDDMM Stage I program with a constant block size:
 * B_out[block] = (X @ Y) sampled at A's present blocks — the
 * row-panel kernel of the sparse-attention pipeline (Figure 16).
 */
ir::PrimFunc buildBsrSddmm(int block_size);

/**
 * SR-BCRS(t, g) SpMM Stage I program (paper Figure 18): stripes of t
 * rows store g-grouped 1-wide tiles.
 * Structure constants (stripes, groups) are baked in as parameters.
 */
ir::PrimFunc buildSrbcrsSpmm(int tile_height, int group_size);

/**
 * ELL-bucket RGMS Stage I program for one (relation, bucket) pair
 * (paper Figure 21): Y[i, l] += sum_j sum_k A[i, j] X[j, k] W[k, l]
 * with A an ELL sub-matrix over a compacted row list. Structure
 * constants are baked in (rows, width); feature sizes are params.
 */
ir::PrimFunc buildEllRgms(int64_t num_rows, int width, int64_t feat_in,
                          int64_t feat_out, const std::string &suffix);

/**
 * ELL format-rewrite rule for hyb decomposition: a bucket with
 * `num_rows` compacted rows of `width` stored entries, selected from
 * an m x n matrix. `num_rows` is a constant or a scalar Var, which
 * the decomposed function then takes as a parameter. Axis names are
 * suffixed to keep rules distinct.
 */
transform::FormatRewriteRule ellRule(const std::string &suffix,
                                     int64_t m, int64_t n,
                                     ir::Expr num_rows, int width);

/**
 * BSR format-rewrite rule (paper Appendix A): block size `b`,
 * `block_rows` block rows, `nnz_blocks` stored blocks.
 */
transform::FormatRewriteRule bsrRule(const std::string &suffix,
                                     int64_t m, int64_t n, int block_size,
                                     int64_t block_rows,
                                     int64_t nnz_blocks);

/**
 * Split a multi-iteration Stage I function into one function per
 * sparse iteration (each kernel launches separately unless
 * horizontally fused).
 */
std::vector<ir::PrimFunc> splitIterations(const ir::PrimFunc &func);

} // namespace core
} // namespace sparsetir

#endif // SPARSETIR_CORE_OPS_H_
