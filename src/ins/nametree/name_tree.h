// The name-tree: the resolver's central data structure (paper §2.3).
//
// A name-tree is the superposition of all name-specifiers a resolver knows
// about: alternating layers of attribute-nodes (orthogonal attributes) and
// value-nodes (possible values), with value-nodes pointing at name-records.
// Three paper algorithms live here:
//
//   * graft        — merge a newly discovered name-specifier into the tree
//                    and attach its name-record at the leaf value-nodes;
//   * LOOKUP-NAME  — single-pass, no-backtracking retrieval of the records
//                    matching a query specifier (Figure 5), with hash-table
//                    attribute/value lookup (the Θ(n_a^d (1+b)) variant of
//                    the §5.1.1 analysis);
//   * GET-NAME     — reconstruct a record's specifier by tracing upward from
//                    its leaf value-nodes and grafting onto already-extracted
//                    fragments (Figure 6), used when sending updates.
//
// Hot-path data layout: attribute and value strings are interned once into a
// SymbolTable (name/symbol_table.h); tree nodes key their children by u32
// SymbolId in small-size-optimized flat maps (symbol_map.h), and specifiers
// are compiled (name/compiled_name.h) once per update or per store query.
// The asymptotics are the paper's; the constant factor per probe drops from
// a std::string hash + node-based bucket chase to an integer compare over a
// contiguous array. Range matching compares against a numeric cached on the
// value-node at graft time instead of re-parsing the token per candidate.
//
// Soft state: records carry an expiry; ExpireBefore() sweeps them out and
// prunes empty branches. Expiries are indexed in a lazy min-heap so a sweep
// costs O(expired + stale entries popped), not a walk of the whole tree —
// expiry_scan_visits() exposes the work done so tests can pin the bound.
// The tree also accounts its memory precisely (heap included, symbol table
// and flat-map footprints counted), which reproduces the paper's Figure 13.

#ifndef INS_NAMETREE_NAME_TREE_H_
#define INS_NAMETREE_NAME_TREE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ins/common/clock.h"
#include "ins/common/status.h"
#include "ins/name/compiled_name.h"
#include "ins/name/name_specifier.h"
#include "ins/name/symbol_table.h"
#include "ins/nametree/name_record.h"
#include "ins/nametree/posting_index.h"
#include "ins/nametree/query_plan.h"
#include "ins/nametree/symbol_map.h"

namespace ins {

class NameTree {
 public:
  struct Options {
    // Intern table for attribute/value tokens. Null (the default): the tree
    // owns a private table. ShardedNameTree passes one shared table to every
    // shard and both left-right sides, so a name compiled once is valid
    // against all of them (the table is append-only and ids are stable).
    std::shared_ptr<SymbolTable> symbols;
    // Maintain a posting-list secondary index (posting_index.h) alongside
    // the tree, and serve conjunctive queries by posting-list intersection;
    // range, union-at-return and wildcard levels the index cannot prove by
    // its counts keep the tree walk. The
    // index is provably result-identical to the walk (differential and
    // property tests pin it); off reproduces the pre-index layout exactly.
    bool enable_posting_index = true;
  };

  NameTree() : NameTree(Options{}) {}
  explicit NameTree(Options options);
  ~NameTree();

  NameTree(const NameTree&) = delete;
  NameTree& operator=(const NameTree&) = delete;

  // The intern table this tree grafts against. Compile queries with
  // CompiledName::ForQuery(query, tree.symbols()) to reuse across calls.
  const SymbolTable& symbols() const { return *symbols_; }
  SymbolTable* mutable_symbols() { return symbols_.get(); }
  std::shared_ptr<SymbolTable> shared_symbols() const { return symbols_; }

  // Reusable per-lookup scratch: the intersection working vectors of
  // LOOKUP-NAME, pooled so repeated queries allocate nothing in steady
  // state. Lookup() without one uses a thread-local instance; callers with
  // their own threading discipline (bench loops, shard fan-out slots) can
  // pass one explicitly. Not thread-safe; contents are transient per call.
  class LookupScratch {
   public:
    void Reset() { used_ = 0; }
    std::vector<const NameRecord*>* Acquire() {
      if (used_ == pool_.size()) {
        pool_.push_back(std::make_unique<std::vector<const NameRecord*>>());
      }
      std::vector<const NameRecord*>* v = pool_[used_++].get();
      v->clear();
      return v;
    }

    // Retained-capacity caps, enforced by Trim() at the end of every Lookup.
    // Pooled vectors and the stamped set are sized by result fan-out: one
    // degenerate query against a 10^6-name tree (a single common attribute)
    // inflates them to tens of MB, and without a cap every long-lived lookup
    // thread pins that high-water mark forever.
    static constexpr size_t kMaxRetainedPoolVectors = 32;
    static constexpr size_t kMaxRetainedVecEntries = 1 << 16;   // 512 KB each
    static constexpr size_t kMaxRetainedSetSlots = 1 << 17;     // 2 MB
    static constexpr size_t kMaxRetainedSlotEntries = 1 << 17;  // 512 KB

    // Releases any scratch block grown past its cap. Transient allocations
    // within a lookup are unaffected; only what survives between lookups is
    // bounded.
    void Trim();

    // Bytes currently pinned between lookups (the quantity Trim bounds).
    size_t RetainedBytes() const;

   private:
    friend class NameTree;

    // Open-addressing pointer-set scratch backing IntersectWith: generation
    // stamping makes "clear" O(1), so intersecting candidate lists costs one
    // linear pass with no sort and no allocation in steady state.
    struct SetSlot {
      const NameRecord* ptr = nullptr;
      uint64_t gen = 0;
    };
    std::vector<SetSlot> set_slots_;
    uint64_t set_gen_ = 0;

    // unique_ptr elements keep acquired pointers stable across pool growth.
    std::vector<std::unique_ptr<std::vector<const NameRecord*>>> pool_;
    size_t used_ = 0;

    // Index-path scratch: the intersection's slot output and the bitmap
    // AND kernel's word buffer.
    std::vector<uint32_t> slot_scratch_;
    std::vector<uint64_t> word_scratch_;
    // Per-thread plan memo (query_plan.h); keyed by index id + version, so
    // it never serves stale plans across mutations or side flips.
    QueryPlanCache plan_cache_;
  };

  // Outcome of merging an advertisement.
  struct UpsertOutcome {
    enum Kind {
      kNew,        // announcer was unknown: name grafted
      kRefreshed,  // same name and data: expiry/version refreshed only
      kChanged,    // data (metric, endpoint, route) changed; name identical
      kRenamed,    // same announcer, different specifier: old graft replaced
      kIgnored,    // stale version; nothing done
    } kind;
    NameRecord* record;  // nullptr only when kIgnored
    // True when the merge moved the stored version forward. A kRefreshed
    // with an advanced version is a liveness signal from the announcer, not
    // pure duplicate suppression — replication journals it so digest serials
    // advance and downstream replicas keep their copies leased.
    bool version_advanced = false;
  };

  // Inserts or refreshes the advertisement `info` under `name`. A record is
  // identified by its AnnouncerId: re-announcing with a different specifier
  // implements service mobility (the old graft is removed). Updates carrying
  // a version lower than the stored one are ignored.
  UpsertOutcome Upsert(const NameSpecifier& name, const NameRecord& info);

  // As above with the name already compiled (CompiledName::ForUpdate against
  // this tree's symbols()). The sharded store compiles once per entry and
  // replays the same compiled name on both left-right sides.
  UpsertOutcome Upsert(const NameSpecifier& name, const CompiledName& compiled,
                       const NameRecord& info);

  // LOOKUP-NAME: all records matching the query. Results are sorted by
  // AnnouncerId for deterministic output. An empty query matches everything.
  //
  // Semantics note (a faithful reproduction of Figure 5): a query av-pair
  // whose attribute is absent from the *whole tree* does not constrain the
  // result (`if Ta = null then continue`), but once any advertisement uses
  // that attribute at that position, the constraint applies to every
  // candidate — an advertisement that omits the attribute is then excluded
  // unless its specifier chain ends above it (the union-at-return rule).
  // Per-advertisement Matches() semantics, where an omitted advertisement
  // attribute is always a wildcard, coincide with Lookup() exactly when
  // advertisements are schema-complete at each position; otherwise Lookup()
  // returns a subset. Property tests pin down both relationships.
  std::vector<const NameRecord*> Lookup(const NameSpecifier& query) const;

  // As above with the query already compiled (ForQuery against symbols());
  // the per-store-operation path: compile once, run per shard. A null
  // scratch uses the thread-local pool. With the posting index enabled,
  // conjunctive queries are served by posting-list intersection (plan
  // memoized in the scratch's QueryPlanCache); the plan's fallback kinds run
  // LookupTreeWalk instead. Results are identical either way.
  std::vector<const NameRecord*> Lookup(const CompiledName& query,
                                        LookupScratch* scratch = nullptr) const;

  // The Figure-5 tree walk, bypassing the posting index unconditionally.
  // Lookup()'s fallback path, public so tests and the index ablation bench
  // can compare both engines on the same tree.
  std::vector<const NameRecord*> LookupTreeWalk(const CompiledName& query,
                                                LookupScratch* scratch = nullptr) const;

  // GET-NAME: reconstructs the name-specifier of a record owned by this tree.
  NameSpecifier ExtractName(const NameRecord* record) const;

  // Removes the record for `id`. Returns false if unknown.
  bool Remove(const AnnouncerId& id);

  // Extends the expiry of `id` to max(current, expires) without touching any
  // other field, keeping the expiry index consistent. Returns false if the
  // announcer is unknown.
  bool RefreshExpiry(const AnnouncerId& id, TimePoint expires);

  // Removes every record with expires < now; returns how many were removed.
  // Driven by the expiry min-heap: cost is proportional to the number of
  // heap entries that have come due (expired records plus entries staled by
  // refreshes/removals), independent of the live tree size. When `expired`
  // is non-null the announcers of the removed records are appended to it, in
  // removal order (deterministic: heap order), so callers can journal them.
  size_t ExpireBefore(TimePoint now, std::vector<AnnouncerId>* expired = nullptr);

  // Cumulative count of expiry-heap entries examined by ExpireBefore calls;
  // the sweep-cost accounting used by tests and the network-management view.
  uint64_t expiry_scan_visits() const { return expiry_scan_visits_; }

  // True when the expiry index has an entry due before `now` (possibly a
  // stale one); a cheap pre-check for skipping a sweep entirely.
  bool HasExpiryDueBefore(TimePoint now) const {
    return !expiry_heap_.empty() && expiry_heap_.front().first < now;
  }

  const NameRecord* Find(const AnnouncerId& id) const;
  // Caution: do not set `expires` through this pointer — that bypasses the
  // expiry index. Use RefreshExpiry() (or Upsert) instead.
  NameRecord* FindMutable(const AnnouncerId& id);

  // All live records, sorted by AnnouncerId.
  std::vector<const NameRecord*> AllRecords() const;

  size_t record_count() const { return records_.size(); }

  struct Stats {
    size_t attribute_nodes = 0;
    size_t value_nodes = 0;
    size_t records = 0;
    size_t expiry_heap_entries = 0;  // live + stale entries in the min-heap
    size_t bytes = 0;  // estimated resident bytes of the whole structure
    // Portion of `bytes` that is the intern table. Zero when the table is
    // shared (ShardedNameTree accounts it once at the store level instead,
    // so Figure 13 totals never double-count it).
    size_t symbol_bytes = 0;
    // Portion of `bytes` that is the posting index (zero when disabled).
    size_t index_bytes = 0;
  };
  Stats ComputeStats() const;

  // The posting index, or nullptr when Options::enable_posting_index is off.
  // Exposed read-only for tests, stats aggregation, and the ablation bench.
  const PostingIndex* posting_index() const { return index_.get(); }
  // Counter snapshot; zeroed struct when the index is disabled.
  PostingIndexStats index_stats() const {
    return index_ != nullptr ? index_->Stats() : PostingIndexStats{};
  }

  // Renders the tree for debugging (NetworkManagement-style view).
  std::string DebugString() const;

  // Verifies internal invariants (parent pointers, terminal back-pointers,
  // flat-map key consistency, cached numerics); used by tests. Returns an
  // error describing the first violation found.
  Status CheckInvariants() const;

 private:
  struct AttributeNode;
  struct ValueNode;

  struct AttributeNode {
    SymbolId attribute = kInvalidSymbol;
    ValueNode* parent;  // owning value-node (never null; root is a ValueNode)
    // Interned-key flat child map: the paper's Θ(1) find of a value.
    SymbolMap<std::unique_ptr<ValueNode>> values;
  };

  struct ValueNode {
    SymbolId token = kInvalidSymbol;  // kInvalidSymbol only for the root
    // The token parsed as a number, cached at graft time: range queries
    // compare doubles instead of calling strtod per candidate.
    bool has_number = false;
    double number = 0.0;
    AttributeNode* parent_attr = nullptr;  // null for root
    // Interned-key flat child map of orthogonal attributes.
    SymbolMap<std::unique_ptr<AttributeNode>> attributes;
    // Records whose specifier has a leaf ending at this value-node.
    std::vector<NameRecord*> records;
  };

  // A sorted set of record pointers, or "the universal set" before the first
  // intersection (paper: S starts as the set of all possible name-records).
  // The items vector is owned by the active LookupScratch.
  struct CandidateSet {
    bool universal = true;
    std::vector<const NameRecord*>* items = nullptr;

    bool Empty() const { return !universal && items->empty(); }
  };

  // Intersects `other` into `s` (duplicates in either side collapse). Uses
  // the scratch's stamped pointer set: one O(|items| + |other|) pass, no
  // sorting, no allocation in steady state. Candidate order afterwards is
  // `other`'s traversal order; Lookup sorts the final result by announcer.
  static void IntersectWith(CandidateSet* s, const std::vector<const NameRecord*>* other,
                            LookupScratch* scratch);

  // Grafts compiled nodes [begin, begin+count) below `parent`, attaching
  // `rec` at leaf value-nodes. `fp` is `parent`'s value-path fingerprint
  // (PostingIndex::kRootFp at the root); index terms are added per node.
  void Graft(ValueNode* parent, const CompiledName& name, uint32_t begin, uint32_t count,
             NameRecord* rec, uint64_t fp);
  // Detaches `rec` from its terminal value-nodes and prunes empty branches.
  void Ungraft(NameRecord* rec);
  void PruneUpward(ValueNode* v);
  // Removes `rec`'s posting-index terms by recomputing its value-path
  // fingerprints from the live tree structure. Must run BEFORE Ungraft —
  // pruning destroys the parent chain the recomputation walks.
  void IndexRemoveTerms(NameRecord* rec);

  // One recursion level of LOOKUP-NAME rooted at value-node `node`, over
  // compiled query nodes [begin, begin+count).
  void LookupLevel(const ValueNode* node, const CompiledName& query, uint32_t begin,
                   uint32_t count, CandidateSet* s, LookupScratch* scratch) const;
  void SubtreeRecords(const ValueNode* node, std::vector<const NameRecord*>* out) const;
  void SubtreeRecords(const AttributeNode* node, std::vector<const NameRecord*>* out) const;

  // Pushes a (deadline, id) entry when a record's expiry is set or extended.
  // Entries are never erased in place; ExpireBefore pops lazily and skips
  // entries whose deadline no longer matches the live record.
  void PushExpiry(TimePoint expires, const AnnouncerId& id);

  Options options_;
  std::shared_ptr<SymbolTable> symbols_;
  bool owns_symbols_ = false;
  ValueNode root_;
  std::map<AnnouncerId, std::unique_ptr<NameRecord>> records_;
  // The posting-list secondary index (null when disabled). Mutated only on
  // this tree's write path, so the left-right protocol flips and replays it
  // together with the tree.
  std::unique_ptr<PostingIndex> index_;

  // Min-heap over (deadline, announcer), maintained with std::push/pop_heap
  // on a greater-than comparator. Stale entries (refreshed or removed
  // records) are skipped when popped.
  std::vector<std::pair<TimePoint, AnnouncerId>> expiry_heap_;
  uint64_t expiry_scan_visits_ = 0;
};

}  // namespace ins

#endif  // INS_NAMETREE_NAME_TREE_H_
