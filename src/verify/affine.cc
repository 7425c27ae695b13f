#include "verify/affine.h"

#include <algorithm>
#include <sstream>

#include "ir/structural_equal.h"
#include "support/logging.h"

namespace sparsetir {
namespace verify {

namespace {

/** Max recursion depth of the non-negativity search. */
constexpr int kProveDepth = 24;
/** Max expression-conversion recursion depth. */
constexpr int kConvertDepth = 64;
/** Max div/mod normalization sweeps. */
constexpr int kNormalizeSweeps = 8;
/** Max depth when folding symbolic bounds to constants. */
constexpr int kConstDepth = 8;

/** Merge two sorted atom-id multisets. */
Monomial
mergeMonomials(const Monomial &a, const Monomial &b)
{
    Monomial out;
    out.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(out));
    return out;
}

int
countAtom(const Monomial &m, int id)
{
    return static_cast<int>(std::count(m.begin(), m.end(), id));
}

/** m with one occurrence of the atom at position `pos` removed. */
Monomial
eraseAt(const Monomial &m, size_t pos)
{
    Monomial out = m;
    out.erase(out.begin() + static_cast<ptrdiff_t>(pos));
    return out;
}

/** LinExpr of a bare monomial with coefficient 1. */
LinExpr
monomialExpr(const Monomial &m)
{
    LinExpr e;
    if (m.empty()) {
        e.constant = 1;
    } else {
        e.terms[m] = 1;
    }
    return e;
}

} // namespace

// ---------------------------------------------------------------------
// LinExpr arithmetic
// ---------------------------------------------------------------------

LinExpr &
LinExpr::operator+=(const LinExpr &other)
{
    constant += other.constant;
    for (const auto &kv : other.terms) {
        int64_t &coeff = terms[kv.first];
        coeff += kv.second;
        if (coeff == 0) {
            terms.erase(kv.first);
        }
    }
    return *this;
}

LinExpr &
LinExpr::operator-=(const LinExpr &other)
{
    constant -= other.constant;
    for (const auto &kv : other.terms) {
        int64_t &coeff = terms[kv.first];
        coeff -= kv.second;
        if (coeff == 0) {
            terms.erase(kv.first);
        }
    }
    return *this;
}

LinExpr &
LinExpr::operator*=(int64_t scale)
{
    if (scale == 0) {
        terms.clear();
        constant = 0;
        return *this;
    }
    constant *= scale;
    for (auto &kv : terms) {
        kv.second *= scale;
    }
    return *this;
}

LinExpr
LinExpr::product(const LinExpr &a, const LinExpr &b)
{
    LinExpr out;
    out.constant = a.constant * b.constant;
    for (const auto &ta : a.terms) {
        if (b.constant != 0) {
            int64_t &coeff = out.terms[ta.first];
            coeff += ta.second * b.constant;
            if (coeff == 0) {
                out.terms.erase(ta.first);
            }
        }
        for (const auto &tb : b.terms) {
            Monomial m = mergeMonomials(ta.first, tb.first);
            int64_t &coeff = out.terms[m];
            coeff += ta.second * tb.second;
            if (coeff == 0) {
                out.terms.erase(m);
            }
        }
    }
    if (a.constant != 0) {
        for (const auto &tb : b.terms) {
            int64_t &coeff = out.terms[tb.first];
            coeff += a.constant * tb.second;
            if (coeff == 0) {
                out.terms.erase(tb.first);
            }
        }
    }
    return out;
}

std::string
LinExpr::key() const
{
    std::ostringstream os;
    os << constant;
    for (const auto &kv : terms) {
        os << "|";
        for (size_t i = 0; i < kv.first.size(); ++i) {
            os << (i ? "." : "") << kv.first[i];
        }
        os << "*" << kv.second;
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Facts and scopes
// ---------------------------------------------------------------------

void
AffineAnalyzer::addFact(const std::string &name, ValueFact fact)
{
    facts_[name] = std::move(fact);
}

const ValueFact *
AffineAnalyzer::findFact(const std::string &name) const
{
    auto it = facts_.find(name);
    return it == facts_.end() ? nullptr : &it->second;
}

const ValueFact *
AffineAnalyzer::factForBuffer(const ir::Buffer &buffer) const
{
    if (buffer == nullptr) {
        return nullptr;
    }
    if (const ValueFact *fact = findFact(buffer->name)) {
        return fact;
    }
    if (buffer->data != nullptr) {
        return findFact(buffer->data->name);
    }
    return nullptr;
}

void
AffineAnalyzer::pushLoopVar(const ir::Var &v, const ir::Expr &min_value,
                            const ir::Expr &extent)
{
    LoopRange range;
    range.lo = toLinExpr(min_value);
    range.hi = range.lo + toLinExpr(extent) - LinExpr::constant_(1);
    loopRanges_[v.get()] = std::move(range);
}

void
AffineAnalyzer::popLoopVar(const ir::Var &v)
{
    loopRanges_.erase(v.get());
}

void
AffineAnalyzer::pushLet(const ir::Var &v, const ir::Expr &value)
{
    lets_[v.get()] = value;
}

void
AffineAnalyzer::popLet(const ir::Var &v)
{
    lets_.erase(v.get());
}

int
AffineAnalyzer::pushConstraints(const ir::Expr &cond, bool negated)
{
    if (cond == nullptr) {
        return 0;
    }
    switch (cond->kind) {
    case ir::ExprKind::kAnd: {
        const auto *node = static_cast<const ir::BinaryNode *>(cond.get());
        if (!negated) {
            int n = pushConstraints(node->a, false);
            return n + pushConstraints(node->b, false);
        }
        // !(a && b) is a disjunction — no single conjunct is implied.
        return 0;
    }
    case ir::ExprKind::kOr: {
        const auto *node = static_cast<const ir::BinaryNode *>(cond.get());
        if (negated) {
            // !(a || b) == !a && !b
            int n = pushConstraints(node->a, true);
            return n + pushConstraints(node->b, true);
        }
        return 0;
    }
    case ir::ExprKind::kNot: {
        const auto *node = static_cast<const ir::NotNode *>(cond.get());
        return pushConstraints(node->a, !negated);
    }
    case ir::ExprKind::kLT:
    case ir::ExprKind::kLE:
    case ir::ExprKind::kGT:
    case ir::ExprKind::kGE:
    case ir::ExprKind::kEQ: {
        const auto *node = static_cast<const ir::BinaryNode *>(cond.get());
        LinExpr a = toLinExpr(node->a);
        LinExpr b = toLinExpr(node->b);
        ir::ExprKind kind = cond->kind;
        if (negated) {
            // !(a < b) == a >= b, etc. EQ negation gives a disjunction.
            switch (kind) {
            case ir::ExprKind::kLT: kind = ir::ExprKind::kGE; break;
            case ir::ExprKind::kLE: kind = ir::ExprKind::kGT; break;
            case ir::ExprKind::kGT: kind = ir::ExprKind::kLE; break;
            case ir::ExprKind::kGE: kind = ir::ExprKind::kLT; break;
            default: return 0;
            }
        }
        switch (kind) {
        case ir::ExprKind::kLT: // a < b  ->  b - a - 1 >= 0
            constraints_.push_back(b - a - LinExpr::constant_(1));
            return 1;
        case ir::ExprKind::kLE: // a <= b  ->  b - a >= 0
            constraints_.push_back(b - a);
            return 1;
        case ir::ExprKind::kGT:
            constraints_.push_back(a - b - LinExpr::constant_(1));
            return 1;
        case ir::ExprKind::kGE:
            constraints_.push_back(a - b);
            return 1;
        case ir::ExprKind::kEQ:
            constraints_.push_back(a - b);
            constraints_.push_back(b - a);
            return 2;
        default:
            return 0;
        }
    }
    default:
        return 0;
    }
}

void
AffineAnalyzer::popConstraints(int count)
{
    ICHECK_GE(static_cast<int>(constraints_.size()), count);
    constraints_.resize(constraints_.size() - static_cast<size_t>(count));
}

// ---------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------

int
AffineAnalyzer::internAtom(const ir::Expr &e)
{
    for (size_t i = 0; i < atoms_.size(); ++i) {
        if (ir::structuralEqual(atoms_[i].expr, e)) {
            return static_cast<int>(i);
        }
    }
    atoms_.push_back(Atom{e});
    return static_cast<int>(atoms_.size()) - 1;
}

int
AffineAnalyzer::findAtom(const ir::Expr &e) const
{
    for (size_t i = 0; i < atoms_.size(); ++i) {
        if (ir::structuralEqual(atoms_[i].expr, e)) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

LinExpr
AffineAnalyzer::atomExpr(int id) const
{
    LinExpr e;
    e.terms[Monomial{id}] = 1;
    return e;
}

const ir::Expr &
AffineAnalyzer::atomSource(int id) const
{
    return atoms_[static_cast<size_t>(id)].expr;
}

std::vector<int>
AffineAnalyzer::loadAtomsOf(const LinExpr &e,
                            const std::string &buffer_name) const
{
    std::vector<int> out;
    for (const auto &kv : e.terms) {
        for (int id : kv.first) {
            const ir::Expr &expr = atoms_[static_cast<size_t>(id)].expr;
            if (expr->kind != ir::ExprKind::kBufferLoad) {
                continue;
            }
            const auto *load =
                static_cast<const ir::BufferLoadNode *>(expr.get());
            if (load->buffer == nullptr) {
                continue;
            }
            bool match = load->buffer->name == buffer_name ||
                         (load->buffer->data != nullptr &&
                          load->buffer->data->name == buffer_name);
            if (match &&
                std::find(out.begin(), out.end(), id) == out.end()) {
                out.push_back(id);
            }
        }
    }
    return out;
}

LinExpr
AffineAnalyzer::toLinExpr(const ir::Expr &e)
{
    LinExpr out = convert(e, kConvertDepth);
    normalizeDivMod(&out, kConvertDepth);
    return out;
}

LinExpr
AffineAnalyzer::convert(const ir::Expr &e, int depth)
{
    ICHECK(e != nullptr);
    if (depth <= 0) {
        return atomExpr(internAtom(e));
    }
    switch (e->kind) {
    case ir::ExprKind::kIntImm:
        return LinExpr::constant_(
            static_cast<const ir::IntImmNode *>(e.get())->value);
    case ir::ExprKind::kAdd: {
        const auto *node = static_cast<const ir::BinaryNode *>(e.get());
        return convert(node->a, depth - 1) + convert(node->b, depth - 1);
    }
    case ir::ExprKind::kSub: {
        const auto *node = static_cast<const ir::BinaryNode *>(e.get());
        return convert(node->a, depth - 1) - convert(node->b, depth - 1);
    }
    case ir::ExprKind::kMul: {
        const auto *node = static_cast<const ir::BinaryNode *>(e.get());
        return LinExpr::product(convert(node->a, depth - 1),
                                convert(node->b, depth - 1));
    }
    case ir::ExprKind::kCast: {
        const auto *node = static_cast<const ir::CastNode *>(e.get());
        if (node->dtype.isInt() || node->dtype.isUInt()) {
            return convert(node->value, depth - 1);
        }
        return atomExpr(internAtom(e));
    }
    case ir::ExprKind::kVar: {
        const auto *var = static_cast<const ir::VarNode *>(e.get());
        auto it = lets_.find(var);
        if (it != lets_.end()) {
            return convert(it->second, depth - 1);
        }
        // Exact caller facts (lo == hi == const) fold to literals so
        // symbolic parameters cancel against concrete spans/widths even
        // inside product monomials, where range reasoning cannot reach.
        if (const ValueFact *fact = findFact(var->name)) {
            int64_t lo = 0;
            int64_t hi = 0;
            if (fact->lo != nullptr && fact->hi != nullptr &&
                ir::tryConstInt(fact->lo, &lo) &&
                ir::tryConstInt(fact->hi, &hi) && lo == hi) {
                return LinExpr::constant_(lo);
            }
        }
        return atomExpr(internAtom(e));
    }
    case ir::ExprKind::kFloorDiv:
    case ir::ExprKind::kFloorMod: {
        // Fold constant operands so structurally different spellings of
        // the same division intern to one atom.
        const auto *node = static_cast<const ir::BinaryNode *>(e.get());
        int64_t a = 0;
        int64_t b = 0;
        if (ir::tryConstInt(node->a, &a) && ir::tryConstInt(node->b, &b) &&
            b > 0) {
            int64_t q = a / b;
            int64_t r = a % b;
            if (r != 0 && ((r < 0) != (b < 0))) {
                q -= 1;
                r += b;
            }
            return LinExpr::constant_(
                e->kind == ir::ExprKind::kFloorDiv ? q : r);
        }
        return atomExpr(internAtom(e));
    }
    default:
        return atomExpr(internAtom(e));
    }
}

void
AffineAnalyzer::normalizeDivMod(LinExpr *e, int depth)
{
    for (int sweep = 0; sweep < kNormalizeSweeps; ++sweep) {
        bool changed = false;
        for (const auto &kv : e->terms) {
            const Monomial &mono = kv.first;
            const int64_t coeff = kv.second;
            for (size_t pos = 0; pos < mono.size(); ++pos) {
                const ir::Expr &dexpr =
                    atoms_[static_cast<size_t>(mono[pos])].expr;
                if (dexpr->kind != ir::ExprKind::kFloorDiv) {
                    continue;
                }
                const auto *div =
                    static_cast<const ir::BinaryNode *>(dexpr.get());
                int64_t c = 0;
                if (!ir::tryConstInt(div->b, &c) || c <= 0) {
                    continue;
                }
                // Find the matching floormod(a, c) atom.
                int modId = -1;
                for (size_t i = 0; i < atoms_.size(); ++i) {
                    const ir::Expr &mexpr = atoms_[i].expr;
                    if (mexpr->kind != ir::ExprKind::kFloorMod) {
                        continue;
                    }
                    const auto *mod =
                        static_cast<const ir::BinaryNode *>(mexpr.get());
                    int64_t mc = 0;
                    if (ir::tryConstInt(mod->b, &mc) && mc == c &&
                        ir::structuralEqual(mod->a, div->a)) {
                        modId = static_cast<int>(i);
                        break;
                    }
                }
                if (modId < 0) {
                    continue;
                }
                Monomial rest = eraseAt(mono, pos);
                Monomial modMono = rest;
                modMono.insert(
                    std::upper_bound(modMono.begin(), modMono.end(), modId),
                    modId);
                auto modIt = e->terms.find(modMono);
                if (modIt == e->terms.end() || coeff != c * modIt->second) {
                    continue;
                }
                // coeff2*(c*(a//c) + a%c)*rest  ->  coeff2*a*rest
                int64_t coeff2 = modIt->second;
                e->terms.erase(mono);
                e->terms.erase(modMono);
                LinExpr repl = LinExpr::product(convert(div->a, depth - 1),
                                                monomialExpr(rest));
                repl *= coeff2;
                *e += repl;
                changed = true;
                break;
            }
            if (changed) {
                break;
            }
        }
        if (!changed) {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Atom properties
// ---------------------------------------------------------------------

bool
AffineAnalyzer::atomNonNeg(int id)
{
    if (inProgress_.count(id)) {
        return false;
    }
    inProgress_.insert(id);
    const ir::Expr expr = atoms_[static_cast<size_t>(id)].expr;
    bool result = false;
    switch (expr->kind) {
    case ir::ExprKind::kVar: {
        const auto *var = static_cast<const ir::VarNode *>(expr.get());
        auto loop = loopRanges_.find(var);
        if (loop != loopRanges_.end()) {
            result = proveNonNeg(loop->second.lo);
        } else if (const ValueFact *fact = findFact(var->name)) {
            result = fact->lo != nullptr && proveNonNeg(fact->lo);
        } else {
            // Axiom: free scalar parameters are sizes, hence >= 0.
            result = true;
        }
        break;
    }
    case ir::ExprKind::kFloorMod: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        int64_t c = 0;
        result = ir::tryConstInt(node->b, &c) && c > 0;
        break;
    }
    case ir::ExprKind::kFloorDiv: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        int64_t c = 0;
        result = ir::tryConstInt(node->b, &c) && c > 0 &&
                 proveNonNeg(node->a);
        break;
    }
    case ir::ExprKind::kBufferLoad: {
        const auto *load =
            static_cast<const ir::BufferLoadNode *>(expr.get());
        const ValueFact *fact = factForBuffer(load->buffer);
        result = fact != nullptr && fact->lo != nullptr &&
                 proveNonNeg(fact->lo);
        break;
    }
    case ir::ExprKind::kCall: {
        const auto *call = static_cast<const ir::CallNode *>(expr.get());
        if ((call->op == ir::Builtin::kLowerBound ||
             call->op == ir::Builtin::kUpperBound) &&
            call->args.size() == 3) {
            // Result lies in [loArg, hiArg].
            result = proveNonNeg(call->args[0]);
        }
        break;
    }
    case ir::ExprKind::kMin: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        result = proveNonNeg(node->a) && proveNonNeg(node->b);
        break;
    }
    case ir::ExprKind::kMax: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        result = proveNonNeg(node->a) || proveNonNeg(node->b);
        break;
    }
    case ir::ExprKind::kSelect: {
        const auto *node = static_cast<const ir::SelectNode *>(expr.get());
        result = proveNonNeg(node->trueValue) &&
                 proveNonNeg(node->falseValue);
        break;
    }
    default:
        break;
    }
    inProgress_.erase(id);
    return result;
}

bool
AffineAnalyzer::atomLo(int id, LinExpr *out)
{
    if (inProgress_.count(id)) {
        return false;
    }
    inProgress_.insert(id);
    const ir::Expr expr = atoms_[static_cast<size_t>(id)].expr;
    bool result = false;
    switch (expr->kind) {
    case ir::ExprKind::kVar: {
        const auto *var = static_cast<const ir::VarNode *>(expr.get());
        auto loop = loopRanges_.find(var);
        if (loop != loopRanges_.end()) {
            *out = loop->second.lo;
            result = true;
        } else if (const ValueFact *fact = findFact(var->name)) {
            if (fact->lo != nullptr) {
                *out = toLinExpr(fact->lo);
                result = true;
            }
        }
        break;
    }
    case ir::ExprKind::kFloorMod: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        int64_t c = 0;
        if (ir::tryConstInt(node->b, &c) && c > 0) {
            *out = LinExpr::constant_(0);
            result = true;
        }
        break;
    }
    case ir::ExprKind::kFloorDiv: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        int64_t c = 0;
        if (ir::tryConstInt(node->b, &c) && c > 0 &&
            proveNonNeg(node->a)) {
            *out = LinExpr::constant_(0);
            result = true;
        }
        break;
    }
    case ir::ExprKind::kBufferLoad: {
        const auto *load =
            static_cast<const ir::BufferLoadNode *>(expr.get());
        const ValueFact *fact = factForBuffer(load->buffer);
        if (fact != nullptr && fact->lo != nullptr) {
            *out = toLinExpr(fact->lo);
            result = true;
        }
        break;
    }
    case ir::ExprKind::kCall: {
        const auto *call = static_cast<const ir::CallNode *>(expr.get());
        if ((call->op == ir::Builtin::kLowerBound ||
             call->op == ir::Builtin::kUpperBound) &&
            call->args.size() == 3) {
            *out = toLinExpr(call->args[0]);
            result = true;
            // Refinement: if the searched value is known to be past the
            // first element, position 0 cannot be the answer.
            const ValueFact *fact = factForBuffer(call->bufferArg);
            if (fact != nullptr && fact->first != nullptr &&
                ir::isConstInt(call->args[0], 0)) {
                LinExpr v = toLinExpr(call->args[2]);
                LinExpr first = toLinExpr(fact->first);
                bool skipsFront =
                    call->op == ir::Builtin::kUpperBound
                        ? proveNonNeg(v - first) // buf[0] <= v
                        : proveNonNeg(v - first -
                                      LinExpr::constant_(1)); // buf[0] < v
                if (skipsFront) {
                    *out += LinExpr::constant_(1);
                }
            }
        }
        break;
    }
    case ir::ExprKind::kMax: {
        // max(a, b) >= each branch; take the first that resolves.
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        for (const ir::Expr &branch : {node->a, node->b}) {
            LinExpr lin = toLinExpr(branch);
            if (lin.isConstant()) {
                *out = lin;
                result = true;
                break;
            }
            int sub = findAtom(branch);
            if (sub >= 0 && sub != id && atomLo(sub, out)) {
                result = true;
                break;
            }
        }
        break;
    }
    default:
        break;
    }
    inProgress_.erase(id);
    return result;
}

bool
AffineAnalyzer::atomHi(int id, LinExpr *out)
{
    if (inProgress_.count(id)) {
        return false;
    }
    inProgress_.insert(id);
    const ir::Expr expr = atoms_[static_cast<size_t>(id)].expr;
    bool result = false;
    switch (expr->kind) {
    case ir::ExprKind::kVar: {
        const auto *var = static_cast<const ir::VarNode *>(expr.get());
        auto loop = loopRanges_.find(var);
        if (loop != loopRanges_.end()) {
            *out = loop->second.hi;
            result = true;
        } else if (const ValueFact *fact = findFact(var->name)) {
            if (fact->hi != nullptr) {
                *out = toLinExpr(fact->hi);
                result = true;
            }
        }
        break;
    }
    case ir::ExprKind::kFloorMod: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        int64_t c = 0;
        if (ir::tryConstInt(node->b, &c) && c > 0) {
            *out = LinExpr::constant_(c - 1);
            result = true;
        }
        break;
    }
    case ir::ExprKind::kFloorDiv: {
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        int64_t c = 0;
        if (ir::tryConstInt(node->b, &c) && c > 0) {
            LinExpr arg = toLinExpr(node->a);
            int64_t alo = 0;
            int64_t ahi = 0;
            if (constBounds(arg, &alo, &ahi, kConstDepth)) {
                int64_t q = ahi / c;
                if (ahi % c != 0 && ahi < 0) {
                    q -= 1;
                }
                *out = LinExpr::constant_(q);
                result = true;
            } else if (proveNonNeg(arg)) {
                // floor(a/c) <= a for a >= 0, c >= 1.
                *out = arg;
                result = true;
            }
        }
        break;
    }
    case ir::ExprKind::kBufferLoad: {
        const auto *load =
            static_cast<const ir::BufferLoadNode *>(expr.get());
        const ValueFact *fact = factForBuffer(load->buffer);
        if (fact != nullptr && fact->hi != nullptr) {
            *out = toLinExpr(fact->hi);
            result = true;
        }
        break;
    }
    case ir::ExprKind::kCall: {
        const auto *call = static_cast<const ir::CallNode *>(expr.get());
        if ((call->op == ir::Builtin::kLowerBound ||
             call->op == ir::Builtin::kUpperBound) &&
            call->args.size() == 3) {
            *out = toLinExpr(call->args[1]);
            result = true;
            // Refinement: if the last element already satisfies the
            // search predicate, the not-found sentinel hiArg cannot be
            // returned. Requires hiArg == the array extent so that
            // fact->last really is buf[hiArg - 1].
            const ValueFact *fact = factForBuffer(call->bufferArg);
            if (fact != nullptr && fact->last != nullptr &&
                call->bufferArg != nullptr &&
                call->bufferArg->ndim() == 1) {
                LinExpr extent = toLinExpr(call->bufferArg->dimExtent(0));
                if (extent.key() == out->key()) {
                    LinExpr v = toLinExpr(call->args[2]);
                    LinExpr last = toLinExpr(fact->last);
                    bool lastHits =
                        call->op == ir::Builtin::kUpperBound
                            ? proveNonNeg(last - v -
                                          LinExpr::constant_(1)) // last > v
                            : proveNonNeg(last - v);             // last >= v
                    if (lastHits) {
                        *out -= LinExpr::constant_(1);
                    }
                }
            }
        }
        break;
    }
    case ir::ExprKind::kMin: {
        // min(a, b) <= each branch; take the first that resolves.
        const auto *node = static_cast<const ir::BinaryNode *>(expr.get());
        for (const ir::Expr &branch : {node->a, node->b}) {
            LinExpr lin = toLinExpr(branch);
            if (lin.isConstant()) {
                *out = lin;
                result = true;
                break;
            }
            int sub = findAtom(branch);
            if (sub >= 0 && sub != id && atomHi(sub, out)) {
                result = true;
                break;
            }
        }
        break;
    }
    default:
        break;
    }
    inProgress_.erase(id);
    return result;
}

bool
AffineAnalyzer::monomialNonNeg(const Monomial &m)
{
    for (int id : m) {
        if (!atomNonNeg(id)) {
            return false;
        }
    }
    return true;
}

bool
AffineAnalyzer::cofactorsNonNeg(const Monomial &m, size_t skip)
{
    for (size_t i = 0; i < m.size(); ++i) {
        if (i != skip && !atomNonNeg(m[i])) {
            return false;
        }
    }
    return true;
}

bool
AffineAnalyzer::constBounds(const LinExpr &e, int64_t *lo, int64_t *hi,
                            int depth)
{
    if (depth <= 0) {
        return false;
    }
    int64_t sumLo = e.constant;
    int64_t sumHi = e.constant;
    for (const auto &kv : e.terms) {
        // Bound the monomial product; require every factor in [0, inf)
        // with known constant bounds so products stay monotone.
        int64_t plo = 1;
        int64_t phi = 1;
        for (int id : kv.first) {
            LinExpr alo;
            LinExpr ahi;
            if (!atomLo(id, &alo) || !atomHi(id, &ahi)) {
                return false;
            }
            int64_t aloLo = 0;
            int64_t aloHi = 0;
            int64_t ahiLo = 0;
            int64_t ahiHi = 0;
            if (!constBounds(alo, &aloLo, &aloHi, depth - 1) ||
                !constBounds(ahi, &ahiLo, &ahiHi, depth - 1)) {
                return false;
            }
            if (aloLo < 0) {
                return false;
            }
            plo *= aloLo;
            phi *= ahiHi;
        }
        if (kv.second >= 0) {
            sumLo += kv.second * plo;
            sumHi += kv.second * phi;
        } else {
            sumLo += kv.second * phi;
            sumHi += kv.second * plo;
        }
    }
    *lo = sumLo;
    *hi = sumHi;
    return true;
}

// ---------------------------------------------------------------------
// The prover
// ---------------------------------------------------------------------

bool
AffineAnalyzer::proveNonNeg(const LinExpr &e)
{
    // Range queries nest proofs; the outermost one owns the budget.
    if (proofNesting_++ == 0) {
        stepsLeft_ = kProofStepBudget;
    }
    std::set<std::string> visited;
    bool proved = proveNonNegImpl(e, kProveDepth, &visited);
    --proofNesting_;
    return proved;
}

bool
AffineAnalyzer::proveNonNeg(const ir::Expr &a)
{
    return proveNonNeg(toLinExpr(a));
}

bool
AffineAnalyzer::proveLE(const ir::Expr &a, const ir::Expr &b)
{
    return proveNonNeg(toLinExpr(b) - toLinExpr(a));
}

bool
AffineAnalyzer::proveNonNegImpl(const LinExpr &e, int depth,
                                std::set<std::string> *visited)
{
    if (e.terms.empty()) {
        return e.constant >= 0;
    }
    if (depth <= 0 || stepsLeft_ == 0) {
        return false;
    }
    --stepsLeft_;
    ++proofSteps_;
    if (!visited->insert(e.key()).second) {
        return false;
    }

    // Move 1: direct — constant >= 0 and every term provably >= 0.
    if (e.constant >= 0) {
        bool direct = true;
        for (const auto &kv : e.terms) {
            if (kv.second < 0 || !monomialNonNeg(kv.first)) {
                direct = false;
                break;
            }
        }
        if (direct) {
            return true;
        }
    }

    // Move 2: subtract a guard constraint c >= 0, scaled by a
    // non-negative monomial s and a positive integer k; e = (e - k*s*c)
    // + k*s*c, so (e - k*s*c) >= 0 suffices. The scale is chosen so a
    // negative monomial of c aligns with a negative monomial of e (e.g.
    // the split-tail guard `feat - 1 - kpart >= 0` scaled by `n`
    // discharges `n*feat - 1 - n*kpart - col`), and k so their
    // coefficients cancel: a hyb row guard `rows - 1 - q >= 0` against
    // an element offset `width * q` needs k = width, which one
    // recursion step per unit of k would not reach for wide buckets.
    // The cancelling k is tried first, then k = 1; recursion applies
    // constraints again.
    for (size_t ci = 0; ci < constraints_.size(); ++ci) {
        const LinExpr c = constraints_[ci];
        std::vector<std::pair<Monomial, int64_t>> scales;
        for (const auto &ce : c.terms) {
            if (ce.second >= 0) {
                continue;
            }
            for (const auto &te : e.terms) {
                if (te.second >= 0) {
                    continue;
                }
                // Does ce.first divide te.first? The quotient monomial
                // is the candidate scale.
                if (!std::includes(te.first.begin(), te.first.end(),
                                   ce.first.begin(), ce.first.end())) {
                    continue;
                }
                Monomial scale;
                auto it = ce.first.begin();
                for (int id : te.first) {
                    if (it != ce.first.end() && *it == id) {
                        ++it;
                    } else {
                        scale.push_back(id);
                    }
                }
                for (int64_t k : {te.second % ce.second == 0
                                      ? te.second / ce.second
                                      : int64_t{1},
                                  int64_t{1}}) {
                    std::pair<Monomial, int64_t> cand(scale, k);
                    if (std::find(scales.begin(), scales.end(), cand) ==
                        scales.end()) {
                        scales.push_back(std::move(cand));
                    }
                }
            }
        }
        for (const auto &[scale, k] : scales) {
            if (!monomialNonNeg(scale)) {
                continue;
            }
            LinExpr scaled = LinExpr::product(c, monomialExpr(scale)) * k;
            if (proveNonNegImpl(e - scaled, depth - 1, visited)) {
                return true;
            }
        }
    }

    // Move 3: eliminate one atom by substituting its bound — the upper
    // bound where the atom's coefficient is negative (requires the
    // cofactors non-negative), the lower bound (or zero, when the atom
    // itself is non-negative) where it is positive. Branch over the
    // candidate atoms: elimination order matters because substituted
    // bounds introduce cancellations.
    std::vector<int> candidates;
    for (const auto &kv : e.terms) {
        for (int id : kv.first) {
            if (std::find(candidates.begin(), candidates.end(), id) ==
                candidates.end()) {
                candidates.push_back(id);
            }
        }
    }
    for (int id : candidates) {
        // Variant A substitutes the symbolic lower bound into positive
        // terms; variant B drops non-negative positive terms instead
        // (equivalent to lo = 0). Both are sound; either can be the one
        // that cancels.
        for (int variant = 0; variant < 2; ++variant) {
            LinExpr reduced;
            reduced.constant = e.constant;
            bool feasible = true;
            bool usedLoSubst = false;
            for (const auto &kv : e.terms) {
                const Monomial &mono = kv.first;
                int64_t coeff = kv.second;
                int cnt = countAtom(mono, id);
                if (cnt == 0) {
                    reduced.terms[mono] = coeff;
                    continue;
                }
                if (cnt > 1) {
                    feasible = false;
                    break;
                }
                size_t pos = static_cast<size_t>(
                    std::find(mono.begin(), mono.end(), id) - mono.begin());
                if (!cofactorsNonNeg(mono, pos)) {
                    feasible = false;
                    break;
                }
                Monomial rest = eraseAt(mono, pos);
                if (coeff < 0) {
                    LinExpr hi;
                    if (!atomHi(id, &hi)) {
                        feasible = false;
                        break;
                    }
                    LinExpr repl = LinExpr::product(hi, monomialExpr(rest));
                    repl *= coeff;
                    reduced += repl;
                } else {
                    LinExpr lo;
                    if (variant == 0 && atomLo(id, &lo)) {
                        LinExpr repl =
                            LinExpr::product(lo, monomialExpr(rest));
                        repl *= coeff;
                        reduced += repl;
                        usedLoSubst = true;
                    } else if (atomNonNeg(id)) {
                        // Drop the term: coeff * atom * rest >= 0.
                    } else {
                        feasible = false;
                        break;
                    }
                }
            }
            if (!feasible) {
                break; // cnt > 1 or cofactors fail for both variants
            }
            if (variant == 1 && !usedLoSubst) {
                break; // variant B identical to A
            }
            normalizeDivMod(&reduced, kConvertDepth);
            if (proveNonNegImpl(reduced, depth - 1, visited)) {
                return true;
            }
            if (!usedLoSubst) {
                break;
            }
        }
    }
    return false;
}

bool
AffineAnalyzer::proveBlockDisjoint(const LinExpr &index,
                                   const ir::Var &block_var)
{
    return proveBlockStride(index, block_var) ||
           proveBlockMonotone(index, block_var);
}

bool
AffineAnalyzer::proveBlockStride(const LinExpr &index,
                                 const ir::Var &block_var)
{
    int blockId = findAtom(block_var);
    if (blockId < 0) {
        // The block var does not appear in the index at all: distinct
        // iterations address the same location.
        return false;
    }
    LinExpr stride;
    LinExpr rest;
    rest.constant = index.constant;
    for (const auto &kv : index.terms) {
        int cnt = countAtom(kv.first, blockId);
        if (cnt == 0) {
            rest.terms[kv.first] = kv.second;
            continue;
        }
        if (cnt > 1) {
            return false; // non-linear in the block var
        }
        size_t pos = static_cast<size_t>(
            std::find(kv.first.begin(), kv.first.end(), blockId) -
            kv.first.begin());
        Monomial cof = eraseAt(kv.first, pos);
        // The stride must be invariant across iterations: every factor
        // has to be a free scalar parameter, not a loop variable or a
        // data-dependent value.
        for (int id : cof) {
            const ir::Expr &expr = atoms_[static_cast<size_t>(id)].expr;
            if (expr->kind != ir::ExprKind::kVar) {
                return false;
            }
            const auto *var = static_cast<const ir::VarNode *>(expr.get());
            if (loopRanges_.count(var) != 0) {
                return false;
            }
        }
        LinExpr term = monomialExpr(cof);
        term *= kv.second;
        stride += term;
    }
    // Disjointness: 0 <= rest <= stride - 1 means consecutive block
    // ids are separated by at least the span the inner loops can cover.
    return proveNonNeg(rest) &&
           proveNonNeg(stride - rest - LinExpr::constant_(1));
}

bool
AffineAnalyzer::proveBlockMonotone(const LinExpr &index,
                                   const ir::Var &block_var)
{
    // Rule B: index = c * P[block_var] + rest with P sorted and
    // c a positive constant. Distinct block ids then address disjoint
    // windows, because b' > b implies P[b'] >= P[b + 1] and hence
    // c*P[b'] >= c*P[b + 1], so confining the index to
    // [c*P[block_var], c*P[block_var + 1]) is enough. c = 1 is the
    // CSR edge-space pattern `E[J_indptr[i] + r]` (upper bound from
    // the padded-row guard `r < P[i + 1] - P[i]`); c = blockArea is
    // the BSR pattern `B[(JO_indptr[io] + jo) * area + t]` whose
    // inner offset t spans one block.
    for (const auto &kv : index.terms) {
        if (kv.first.size() != 1 || kv.second < 1) {
            continue;
        }
        int id = kv.first[0];
        const ir::Expr &expr = atoms_[static_cast<size_t>(id)].expr;
        if (expr->kind != ir::ExprKind::kBufferLoad) {
            continue;
        }
        const auto *load =
            static_cast<const ir::BufferLoadNode *>(expr.get());
        if (load->indices.size() != 1 ||
            !ir::structuralEqual(load->indices[0], block_var)) {
            continue;
        }
        const ValueFact *fact = factForBuffer(load->buffer);
        if (fact == nullptr || !fact->sorted) {
            continue;
        }
        LinExpr scaled = atomExpr(id);
        scaled *= kv.second;
        LinExpr rest = index - scaled;
        if (!proveNonNeg(rest)) {
            continue;
        }
        ir::Expr next = ir::bufferLoad(
            load->buffer, {ir::add(block_var, ir::intImm(1))});
        LinExpr upper = atomExpr(internAtom(next));
        upper *= kv.second;
        upper -= index;
        upper -= LinExpr::constant_(1);
        if (proveNonNeg(upper)) {
            return true;
        }
    }
    return false;
}

} // namespace verify
} // namespace sparsetir
