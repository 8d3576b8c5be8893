// Compiled query plans for the posting-list index (posting_index.h).
//
// A conjunctive query compiles to a QueryPlan: either the posting lists to
// intersect, a constant (empty / universal), or a fallback verdict naming why
// the tree walk must run instead (a wildcard the index cannot prove, a range
// level, or a union-at-return level). Deriving a plan costs O(query nodes)
// hash probes and resolves each term to its PostingList once; the
// QueryPlanCache memoizes it so a hot destination query — the ones the wire
// NameDecoder memo keeps hitting — skips even that, and evaluation never
// probes the index's hash maps.
//
// Cache validity: a plan is only meaningful against the exact index state it
// was derived from, so entries are keyed by (index instance id, index
// version, query fingerprint) and every index mutation bumps the version.
// That same key is what keeps the plan's PostingList pointers valid: at an
// unchanged (id, version) no posting has been created, erased or modified.
// The cache lives inside a LookupScratch (thread-local by construction), so
// concurrent readers never share cache storage.

#ifndef INS_NAMETREE_QUERY_PLAN_H_
#define INS_NAMETREE_QUERY_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ins/name/compiled_name.h"

namespace ins {

class PostingList;

struct QueryPlan {
  enum class Kind : uint8_t {
    kIndex,             // intersect the posting lists named by `terms`
    kEmpty,             // some literal level matches nothing: result is {}
    kUniversal,         // no level constrains: result is every record
    kFallbackWildcard,  // wildcard level not covered by the count proof: tree walk
    kFallbackRange,     // query has a range level: tree walk
    kFallbackUnion,     // union-at-return level (records end mid-chain): tree walk
  };

  Kind kind = Kind::kUniversal;
  // The postings to intersect, in query order, resolved at derivation and
  // valid only at the index (id, version) the plan was derived at; only
  // meaningful for kIndex.
  std::vector<const PostingList*> terms;

  bool NeedsTreeWalk() const {
    return kind == Kind::kFallbackWildcard || kind == Kind::kFallbackRange ||
           kind == Kind::kFallbackUnion;
  }
};

// Order- and structure-sensitive 64-bit fingerprint of a compiled query.
// Queries compiled from the same specifier text against the same symbol
// table fingerprint identically (the NameDecoder memo hands out the shared
// parse, so a hot destination hits one cache slot).
uint64_t QueryFingerprint(const CompiledName& query);

// Direct-mapped plan cache (the NameDecoder memo pattern). Not thread-safe;
// owned per LookupScratch.
class QueryPlanCache {
 public:
  static constexpr size_t kSlots = 256;

  // The cached plan for (index_id, version, qfp), or nullptr. All three must
  // match exactly: a stale version never serves.
  const QueryPlan* Find(uint64_t index_id, uint64_t version, uint64_t qfp) const {
    if (entries_.empty()) {
      return nullptr;
    }
    const Entry& e = entries_[SlotOf(qfp)];
    if (e.valid && e.index_id == index_id && e.version == version && e.qfp == qfp) {
      return &e.plan;
    }
    return nullptr;
  }

  // Claims the slot for `qfp`, evicting whatever occupied it, and returns the
  // plan storage for the caller to fill.
  QueryPlan* Insert(uint64_t index_id, uint64_t version, uint64_t qfp) {
    if (entries_.empty()) {
      entries_.resize(kSlots);
    }
    Entry& e = entries_[SlotOf(qfp)];
    e.index_id = index_id;
    e.version = version;
    e.qfp = qfp;
    e.valid = true;
    e.plan.terms.clear();
    return &e.plan;
  }

  size_t MemoryBytes() const {
    size_t bytes = entries_.capacity() * sizeof(Entry);
    for (const Entry& e : entries_) {
      bytes += e.plan.terms.capacity() * sizeof(const PostingList*);
    }
    return bytes;
  }

 private:
  struct Entry {
    uint64_t index_id = 0;
    uint64_t version = 0;
    uint64_t qfp = 0;
    bool valid = false;
    QueryPlan plan;
  };

  static size_t SlotOf(uint64_t qfp) {
    return static_cast<size_t>((qfp * UINT64_C(0x9e3779b97f4a7c15)) >> 56) % kSlots;
  }

  std::vector<Entry> entries_;  // sized lazily on first insert
};

}  // namespace ins

#endif  // INS_NAMETREE_QUERY_PLAN_H_
