/**
 * @file
 * Symbolic affine interval analysis over Stage III index expressions.
 *
 * The verifier (verify/verifier.h) must prove facts of the form
 * `0 <= index` and `index <= extent - 1` where both sides are integer
 * polynomials over scalar parameters (m, nnz, feat_size, ...), loop
 * variables, and opaque data-dependent values (buffer loads, binary
 * searches, floordiv/floormod results). This header provides the
 * machinery:
 *
 *  - LinExpr: an integer polynomial represented as monomial -> coeff,
 *    where a monomial is a multiset of interned atoms. Affine loop
 *    arithmetic (i * feat_size + k) and its cancellations
 *    (J_indptr[i] + (ij - J_indptr[i]) -> ij) fall out of the
 *    representation.
 *
 *  - AffineAnalyzer: interns atoms, tracks loop-variable ranges, let
 *    bindings and guard constraints as lexical scopes, carries
 *    caller-declared value facts for data-dependent atoms (format
 *    invariants like "J_indices values lie in [0, n-1]"), and
 *    discharges `e >= 0` obligations by a bounded search over bound
 *    substitutions and guard-constraint subtraction.
 *
 * Soundness model: every scalar integer parameter of a kernel is
 * assumed non-negative (they are sizes: row counts, nnz, feature
 * widths). Everything else is proven: loop variables from their
 * ranges, data-dependent values only from declared facts, guarded
 * statements only under their guard conjuncts. The prover is
 * conservative — "false" means "not provable", never "disprovable".
 */

#ifndef SPARSETIR_VERIFY_AFFINE_H_
#define SPARSETIR_VERIFY_AFFINE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/prim_func.h"

namespace sparsetir {
namespace verify {

/** A product of interned atoms (sorted atom ids, with multiplicity). */
using Monomial = std::vector<int>;

/** Integer polynomial: sum of coeff * monomial, plus a constant. */
struct LinExpr
{
    /** Monomial -> non-zero coefficient. */
    std::map<Monomial, int64_t> terms;
    int64_t constant = 0;

    bool isConstant() const { return terms.empty(); }

    LinExpr &operator+=(const LinExpr &other);
    LinExpr &operator-=(const LinExpr &other);
    LinExpr &operator*=(int64_t scale);
    friend LinExpr operator+(LinExpr a, const LinExpr &b)
    {
        a += b;
        return a;
    }
    friend LinExpr operator-(LinExpr a, const LinExpr &b)
    {
        a -= b;
        return a;
    }
    friend LinExpr operator*(LinExpr a, int64_t scale)
    {
        a *= scale;
        return a;
    }
    /** Full polynomial product (distributes monomials). */
    static LinExpr product(const LinExpr &a, const LinExpr &b);

    static LinExpr constant_(int64_t c)
    {
        LinExpr e;
        e.constant = c;
        return e;
    }

    /** Stable serialization (memoization key, debugging). */
    std::string key() const;
};

/**
 * Declared value range of a data-dependent buffer or scalar
 * parameter. All fields optional (null = unknown). `lo`/`hi` bound
 * every element value inclusively; `first`/`last` give the values at
 * the two ends of the array (meaningful for sorted indptr arrays,
 * used to refine binary-search results). Bounds may be symbolic
 * expressions over the function's scalar parameters (format
 * invariants) or concrete immediates (derived from a cached
 * structure's actual arrays).
 */
struct ValueFact
{
    ir::Expr lo;
    ir::Expr hi;
    ir::Expr first;
    ir::Expr last;
    /**
     * Elements are non-decreasing (indptr arrays). Licenses the
     * monotone-window race rule: for a sorted array P, the half-open
     * windows [P[b], P[b+1]) of distinct b are pairwise disjoint.
     */
    bool sorted = false;
};

/**
 * Search steps one proof may take, the proofs its range queries nest
 * included: a proof not found by then fails (not provable, as at the
 * depth bound). The search is exponential in the guards in scope, so
 * an unprovable obligation under many guards would otherwise run for
 * tens of milliseconds or more. The largest passing proof in the test
 * suite takes 200 steps.
 */
constexpr int64_t kProofStepBudget = 4096;

class AffineAnalyzer
{
  public:
    AffineAnalyzer() = default;

    /** Declare a value fact, keyed by buffer or parameter name. */
    void addFact(const std::string &name, ValueFact fact);
    const ValueFact *findFact(const std::string &name) const;

    // --- lexical scopes, driven by the verifier's walk ---------------

    /** Enter a loop over [min, min+extent). */
    void pushLoopVar(const ir::Var &v, const ir::Expr &min_value,
                     const ir::Expr &extent);
    void popLoopVar(const ir::Var &v);

    /** Enter a let binding; conversions substitute the value. */
    void pushLet(const ir::Var &v, const ir::Expr &value);
    void popLet(const ir::Var &v);

    /**
     * Enter a branch guarded by `cond` (negated for else branches).
     * Returns the number of affine conjuncts recorded; pass it to
     * popConstraints on scope exit. Non-affine conjuncts are skipped
     * (fewer facts, still sound).
     */
    int pushConstraints(const ir::Expr &cond, bool negated);
    void popConstraints(int count);

    // --- conversion and proving --------------------------------------

    /**
     * Convert an integer expression to polynomial form. Let-bound
     * variables are substituted; floordiv/floormod reconstruction
     * (c * (a // c) + (a % c) -> a) is applied so fused-loop
     * recompositions become provable.
     */
    LinExpr toLinExpr(const ir::Expr &e);

    /**
     * Prove e >= 0 under the current scopes and facts, in at most
     * kProofStepBudget search steps.
     */
    bool proveNonNeg(const LinExpr &e);
    /** Prove a >= 0. */
    bool proveNonNeg(const ir::Expr &a);
    /** Prove a <= b. */
    bool proveLE(const ir::Expr &a, const ir::Expr &b);

    /**
     * Race-disjointness: prove distinct block_var values address
     * disjoint elements. Two rules are tried in order:
     *
     *  A. Stride decomposition — split `index` as
     *     stride * block_var + rest with stride invariant in every
     *     loop variable, then confine 0 <= rest <= stride - 1.
     *
     *  B. Monotone windows — `index` contains a c * P[block_var]
     *     term (c a positive constant) with P declared sorted, and
     *     c*P[block_var] <= index < c*P[block_var + 1] holds. Sorted
     *     P makes those per-block windows pairwise disjoint: the CSR
     *     edge-space write pattern `E[J_indptr[i] + r]` at c = 1, the
     *     BSR block-space pattern `B[(JO_indptr[io] + jo) * area + t]`
     *     at c = blockArea.
     *
     * False when neither rule applies or its obligations cannot be
     * proven.
     */
    bool proveBlockDisjoint(const LinExpr &index, const ir::Var &block_var);

    /** Atom id of `e` if it is already interned; -1 otherwise. */
    int findAtom(const ir::Expr &e) const;
    /** Atoms (by id) whose expression is a load from `buffer_name`. */
    std::vector<int> loadAtomsOf(const LinExpr &e,
                                 const std::string &buffer_name) const;
    /** Search steps every proof of this analyzer took so far. */
    int64_t proofSteps() const { return proofSteps_; }
    /** LinExpr of a single interned atom. */
    LinExpr atomExpr(int id) const;
    /** IR expression an interned atom stands for. */
    const ir::Expr &atomSource(int id) const;

  private:
    /**
     * Interned atom. Bounds are recomputed per query — they depend on
     * the current loop/guard scopes, so caching them on the atom would
     * be unsound across scope changes.
     */
    struct Atom
    {
        ir::Expr expr;
    };

    struct LoopRange
    {
        LinExpr lo;
        LinExpr hi;
    };

    int internAtom(const ir::Expr &e);
    LinExpr convert(const ir::Expr &e, int depth);
    /** c * (a // c) + (a % c) -> a rewriting, to fixpoint. */
    void normalizeDivMod(LinExpr *e, int depth);

    /** Symbolic bounds of atom `id` under the current scopes. */
    bool atomLo(int id, LinExpr *out);
    bool atomHi(int id, LinExpr *out);
    bool atomNonNeg(int id);
    bool monomialNonNeg(const Monomial &m);
    /** All factors of m except position `skip` non-negative. */
    bool cofactorsNonNeg(const Monomial &m, size_t skip);

    /** Constant bounds of a polynomial by recursive substitution. */
    bool constBounds(const LinExpr &e, int64_t *lo, int64_t *hi, int depth);

    const ValueFact *factForBuffer(const ir::Buffer &buffer) const;

    /** Rule A of proveBlockDisjoint (stride decomposition). */
    bool proveBlockStride(const LinExpr &index, const ir::Var &block_var);
    /** Rule B of proveBlockDisjoint (monotone windows). */
    bool proveBlockMonotone(const LinExpr &index,
                            const ir::Var &block_var);

    bool proveNonNegImpl(const LinExpr &e, int depth,
                         std::set<std::string> *visited);

    /** Steps the outermost proof in progress may still take. */
    int64_t stepsLeft_ = 0;
    /** proveNonNeg calls on the stack (range queries nest them). */
    int proofNesting_ = 0;
    int64_t proofSteps_ = 0;
    std::vector<Atom> atoms_;
    /** Atoms whose range query is on the stack (cycle guard). */
    std::set<int> inProgress_;
    std::map<std::string, ValueFact> facts_;
    std::map<const ir::VarNode *, LoopRange> loopRanges_;
    std::map<const ir::VarNode *, ir::Expr> lets_;
    /** Guard conjuncts, each meaning `value >= 0`. */
    std::vector<LinExpr> constraints_;
};

} // namespace verify
} // namespace sparsetir

#endif // SPARSETIR_VERIFY_AFFINE_H_
