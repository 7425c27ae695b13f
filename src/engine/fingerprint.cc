#include "engine/fingerprint.h"

#include <cstring>

namespace sparsetir {
namespace engine {

namespace {

/** Fold one 8-byte word into the running hash: the word is spread
 *  over its 64 bits first, and the state is multiplied and
 *  xor-shifted after, so a flipped input bit moves many state bits
 *  and the order of words counts. */
uint64_t
mixWord(uint64_t hash, uint64_t word)
{
    word *= 0x9E3779B97F4A7C15ULL;
    word ^= word >> 32;
    hash = (hash ^ word) * 0xBF58476D1CE4E5B9ULL;
    return hash ^ (hash >> 29);
}

} // namespace

Fingerprint &
Fingerprint::bytes(const void *data, size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint64_t hash = hash_;
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t word;
        std::memcpy(&word, p + i, 8);
        hash = mixWord(hash, word);
    }
    // The 0-7 tail bytes fill the low bytes of one last word and their
    // count its top byte, so inputs of different lengths differ there.
    uint64_t tail = static_cast<uint64_t>(size - i) << 56;
    for (size_t j = i; j < size; ++j) {
        tail |= static_cast<uint64_t>(p[j]) << (8 * (j - i));
    }
    hash_ = mixWord(hash, tail);
    return *this;
}

uint64_t
structureHash(const format::Csr &m)
{
    Fingerprint fp;
    fp.i64(m.rows).i64(m.cols).i32s(m.indptr).i32s(m.indices);
    return fp.digest();
}

uint64_t
structureHash(const format::RelationalCsr &m)
{
    Fingerprint fp;
    fp.i64(m.rows).i64(m.cols).i64(m.numRelations());
    for (const format::Csr &rel : m.relations) {
        fp.i64(static_cast<int64_t>(structureHash(rel)));
    }
    return fp.digest();
}

uint64_t
structureHash(const format::Bsr &m)
{
    Fingerprint fp;
    fp.i64(m.rows)
        .i64(m.cols)
        .i64(m.blockSize)
        .i64(m.blockRows)
        .i64(m.blockCols)
        .i32s(m.indptr)
        .i32s(m.indices);
    return fp.digest();
}

uint64_t
structureHash(const format::SrBcrs &m)
{
    Fingerprint fp;
    fp.i64(m.rows)
        .i64(m.cols)
        .i64(m.tileHeight)
        .i64(m.groupSize)
        .i64(m.stripes)
        .i32s(m.groupIndptr)
        .i32s(m.tileCols);
    return fp.digest();
}

const char *
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::kSpmmCsr:
        return "spmm_csr";
      case OpKind::kSpmmHyb:
        return "spmm_hyb";
      case OpKind::kSddmm:
        return "sddmm";
      case OpKind::kRgcnHyb:
        return "rgcn_hyb";
      case OpKind::kSpmmBsr:
        return "spmm_bsr";
      case OpKind::kSpmmSrbcrs:
        return "spmm_srbcrs";
      case OpKind::kGraph:
        return "graph";
    }
    return "unknown";
}

} // namespace engine
} // namespace sparsetir
