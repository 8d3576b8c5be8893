#include "ins/nametree/name_tree.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <sstream>
#include <unordered_map>

namespace ins {

NameTree::NameTree(Options options) : options_(std::move(options)) {
  if (options_.symbols != nullptr) {
    symbols_ = options_.symbols;
    owns_symbols_ = false;
  } else {
    symbols_ = std::make_shared<SymbolTable>();
    owns_symbols_ = true;
  }
  if (options_.enable_posting_index) {
    index_ = std::make_unique<PostingIndex>();
  }
  root_.parent_attr = nullptr;
}

NameTree::~NameTree() = default;

// ---------------------------------------------------------------------------
// Candidate sets

namespace {

// Tombstone for erased set slots; never a valid NameRecord pointer.
const NameRecord* const kErasedSlot = reinterpret_cast<const NameRecord*>(1);

inline size_t PtrSlot(const NameRecord* p, size_t mask) {
  const uint64_t h = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(p)) *
                     UINT64_C(0x9e3779b97f4a7c15);
  return static_cast<size_t>(h >> 32) & mask;
}

}  // namespace

void NameTree::IntersectWith(CandidateSet* s, const std::vector<const NameRecord*>* other,
                             LookupScratch* scratch) {
  // Size the stamped set for this round; bumping the generation empties it
  // without touching memory, so steady-state cost is pure probes.
  const size_t need = std::max(s->universal ? size_t{0} : s->items->size(), other->size());
  size_t want = 64;
  while (want < 2 * need) {
    want <<= 1;
  }
  if (want > scratch->set_slots_.size()) {
    scratch->set_slots_.assign(want, LookupScratch::SetSlot{});
    scratch->set_gen_ = 0;
  }
  auto* slots = scratch->set_slots_.data();
  const size_t mask = scratch->set_slots_.size() - 1;
  const uint64_t gen = ++scratch->set_gen_;

  auto insert = [&](const NameRecord* p) {  // true when newly inserted
    size_t i = PtrSlot(p, mask);
    while (true) {
      auto& slot = slots[i];
      if (slot.gen != gen) {
        slot.gen = gen;
        slot.ptr = p;
        return true;
      }
      if (slot.ptr == p) {
        return false;
      }
      i = (i + 1) & mask;
    }
  };

  if (s->universal) {
    // First constraint: adopt `other`, collapsing duplicate terminals.
    s->universal = false;
    s->items->clear();
    for (const NameRecord* p : *other) {
      if (insert(p)) {
        s->items->push_back(p);
      }
    }
    return;
  }

  std::vector<const NameRecord*>& items = *s->items;
  if (items.empty()) {
    return;
  }
  for (const NameRecord* p : items) {
    insert(p);
  }
  // Erase-on-match keeps each record at most once even when `other` holds
  // duplicates; matches compact into the front of `items`.
  auto erase = [&](const NameRecord* p) {  // true when present and erased
    size_t i = PtrSlot(p, mask);
    while (true) {
      auto& slot = slots[i];
      if (slot.gen != gen) {
        return false;
      }
      if (slot.ptr == p) {
        slot.ptr = kErasedSlot;
        return true;
      }
      i = (i + 1) & mask;
    }
  };
  size_t write = 0;
  for (const NameRecord* p : *other) {
    if (erase(p)) {
      items[write++] = p;
    }
  }
  items.resize(write);
}

// ---------------------------------------------------------------------------
// Graft / ungraft

void NameTree::Graft(ValueNode* parent, const CompiledName& name, uint32_t begin,
                     uint32_t count, NameRecord* rec, uint64_t fp) {
  const std::vector<CompiledAvNode>& nodes = name.nodes();
  for (uint32_t i = begin; i < begin + count; ++i) {
    const CompiledAvNode& n = nodes[i];
    assert(n.attribute != kInvalidSymbol && n.token != kInvalidSymbol &&
           "grafting requires a ForUpdate-compiled name");
    std::unique_ptr<AttributeNode>& attr_slot = parent->attributes.FindOrInsert(n.attribute);
    if (attr_slot == nullptr) {
      attr_slot = std::make_unique<AttributeNode>();
      attr_slot->attribute = n.attribute;
      attr_slot->parent = parent;
    }
    AttributeNode* ta = attr_slot.get();

    std::unique_ptr<ValueNode>& value_slot = ta->values.FindOrInsert(n.token);
    if (value_slot == nullptr) {
      value_slot = std::make_unique<ValueNode>();
      value_slot->token = n.token;
      value_slot->has_number = n.has_number;
      value_slot->number = n.number;
      value_slot->parent_attr = ta;
    }
    ValueNode* tv = value_slot.get();

    // Sibling attributes of a specifier level are unique, so each compiled
    // node maps to a distinct value path: one AddTerm per node, no dedup.
    uint64_t child_fp = 0;
    if (index_ != nullptr) {
      child_fp = index_->AddTerm(fp, n.attribute, n.token, n.child_count == 0, rec->slot_);
    }

    if (n.child_count == 0) {
      tv->records.push_back(rec);
      rec->terminals_.push_back(tv);
    } else {
      Graft(tv, name, n.child_begin, n.child_count, rec, child_fp);
    }
  }
}

void NameTree::IndexRemoveTerms(NameRecord* rec) {
  if (index_ == nullptr) {
    return;
  }
  // Recompute the record's value-path fingerprints from the tree instead of
  // storing them per record: walk leaf -> root from each terminal, then hash
  // the chains root -> leaf. Terminals of one record share path prefixes, so
  // the collected keys are deduped by vfp (a vfp names exactly one tree
  // node, and graft added exactly one term per node).
  struct TermKey {
    uint64_t vfp;
    uint64_t afp;
    bool terminal;
  };
  std::vector<TermKey> keys;
  std::vector<std::pair<SymbolId, SymbolId>> chain;  // (attribute, token), leaf -> root
  for (void* t : rec->terminals_) {
    chain.clear();
    for (ValueNode* v = static_cast<ValueNode*>(t); v != &root_; v = v->parent_attr->parent) {
      chain.emplace_back(v->parent_attr->attribute, v->token);
    }
    uint64_t fp = PostingIndex::kRootFp;
    for (size_t i = chain.size(); i-- > 0;) {
      const uint64_t afp = PostingIndex::AttrFp(fp, chain[i].first);
      const uint64_t vfp = PostingIndex::ValueFp(fp, chain[i].first, chain[i].second);
      keys.push_back({vfp, afp, /*terminal=*/i == 0});
      fp = vfp;
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const TermKey& a, const TermKey& b) { return a.vfp < b.vfp; });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const TermKey& a, const TermKey& b) { return a.vfp == b.vfp; }),
             keys.end());
  for (const TermKey& k : keys) {
    index_->RemoveTerm(k.vfp, k.afp, k.terminal, rec->slot_);
  }
}

void NameTree::Ungraft(NameRecord* rec) {
  for (void* t : rec->terminals_) {
    auto* tv = static_cast<ValueNode*>(t);
    auto it = std::find(tv->records.begin(), tv->records.end(), rec);
    assert(it != tv->records.end());
    tv->records.erase(it);
    PruneUpward(tv);
  }
  rec->terminals_.clear();
}

void NameTree::PruneUpward(ValueNode* v) {
  while (v != &root_ && v->records.empty() && v->attributes.empty()) {
    AttributeNode* ta = v->parent_attr;
    ta->values.Erase(v->token);  // destroys *v
    if (!ta->values.empty()) {
      return;
    }
    ValueNode* up = ta->parent;
    up->attributes.Erase(ta->attribute);  // destroys *ta
    v = up;
  }
}

// ---------------------------------------------------------------------------
// Upsert

NameTree::UpsertOutcome NameTree::Upsert(const NameSpecifier& name, const NameRecord& info) {
  return Upsert(name, CompiledName::ForUpdate(name, symbols_.get()), info);
}

NameTree::UpsertOutcome NameTree::Upsert(const NameSpecifier& name,
                                         const CompiledName& compiled,
                                         const NameRecord& info) {
  assert(!name.empty() && "cannot advertise an empty name-specifier");
  auto it = records_.find(info.announcer);
  if (it == records_.end()) {
    auto rec = std::make_unique<NameRecord>(info);
    rec->terminals_.clear();
    NameRecord* raw = rec.get();
    records_.emplace(info.announcer, std::move(rec));
    if (index_ != nullptr) {
      raw->slot_ = index_->AcquireSlot(raw);
    }
    Graft(&root_, compiled, 0, compiled.root_count(), raw, PostingIndex::kRootFp);
    PushExpiry(raw->expires, raw->announcer);
    return {UpsertOutcome::kNew, raw, true};
  }

  NameRecord* rec = it->second.get();
  if (info.version < rec->version) {
    return {UpsertOutcome::kIgnored, nullptr, false};
  }

  const bool version_advanced = info.version > rec->version;
  const bool renamed = !(ExtractName(rec) == name);
  const bool changed = !(rec->endpoint == info.endpoint) || rec->app_metric != info.app_metric ||
                       !(rec->route == info.route);

  rec->endpoint = info.endpoint;
  rec->app_metric = info.app_metric;
  rec->route = info.route;
  rec->version = info.version;
  if (info.expires > rec->expires) {
    rec->expires = info.expires;
    PushExpiry(rec->expires, rec->announcer);  // the older heap entry goes stale
  }

  if (renamed) {
    IndexRemoveTerms(rec);  // before Ungraft prunes the chains it walks
    Ungraft(rec);
    Graft(&root_, compiled, 0, compiled.root_count(), rec, PostingIndex::kRootFp);
    return {UpsertOutcome::kRenamed, rec, version_advanced};
  }
  return {changed ? UpsertOutcome::kChanged : UpsertOutcome::kRefreshed, rec, version_advanced};
}

// ---------------------------------------------------------------------------
// LOOKUP-NAME

void NameTree::SubtreeRecords(const ValueNode* node,
                              std::vector<const NameRecord*>* out) const {
  out->insert(out->end(), node->records.begin(), node->records.end());
  node->attributes.ForEach([&](SymbolId, const std::unique_ptr<AttributeNode>& child) {
    SubtreeRecords(child.get(), out);
  });
}

void NameTree::SubtreeRecords(const AttributeNode* node,
                              std::vector<const NameRecord*>* out) const {
  node->values.ForEach([&](SymbolId, const std::unique_ptr<ValueNode>& child) {
    SubtreeRecords(child.get(), out);
  });
}

void NameTree::LookupLevel(const ValueNode* node, const CompiledName& query, uint32_t begin,
                           uint32_t count, CandidateSet* s, LookupScratch* scratch) const {
  const std::vector<CompiledAvNode>& qnodes = query.nodes();
  for (uint32_t qi = begin; qi < begin + count; ++qi) {
    const CompiledAvNode& q = qnodes[qi];
    if (s->Empty()) {
      return;  // intersection can only shrink; nothing left to find
    }
    // An attribute never interned probes absent here exactly like an
    // attribute this tree has not grafted: `if Ta = null then continue`.
    const std::unique_ptr<AttributeNode>* attr_slot = node->attributes.Find(q.attribute);
    if (attr_slot == nullptr) {
      continue;
    }
    const AttributeNode* ta = attr_slot->get();

    if (q.kind == Value::Kind::kWildcard) {
      // Union of all records in the subtree rooted at the attribute-node.
      std::vector<const NameRecord*>* sub = scratch->Acquire();
      SubtreeRecords(ta, sub);
      IntersectWith(s, sub, scratch);
      continue;
    }

    if (q.kind != Value::Kind::kLiteral) {
      // Range-selection extension: like a wildcard filtered to the value
      // children whose cached numeric satisfies the constraint — integer
      // compares against graft-time parses, no strtod per candidate.
      std::vector<const NameRecord*>* sub = scratch->Acquire();
      ta->values.ForEach([&](SymbolId, const std::unique_ptr<ValueNode>& child) {
        if (!child->has_number) {
          return;  // non-numeric token: a range matches nothing here
        }
        const double n = child->number;
        bool ok = false;
        switch (q.kind) {
          case Value::Kind::kLess:
            ok = n < q.number;
            break;
          case Value::Kind::kLessEqual:
            ok = n <= q.number;
            break;
          case Value::Kind::kGreater:
            ok = n > q.number;
            break;
          case Value::Kind::kGreaterEqual:
            ok = n >= q.number;
            break;
          default:
            break;
        }
        if (ok) {
          SubtreeRecords(child.get(), sub);
        }
      });
      IntersectWith(s, sub, scratch);
      continue;
    }

    // Literal: one integer-keyed probe (an uninterned query token — value
    // advertised nowhere — probes absent and correctly matches nothing).
    const std::unique_ptr<ValueNode>* value_slot = ta->values.Find(q.token);
    if (value_slot == nullptr) {
      // The advertised values for this attribute all differ: no match.
      if (s->universal) {
        s->universal = false;
      }
      s->items->clear();
      return;
    }
    const ValueNode* tv = value_slot->get();

    if (q.child_count == 0) {
      // Query chain ends here: everything at or below this value matches
      // (interior value-nodes "correspond to" all records beneath them).
      std::vector<const NameRecord*>* sub = scratch->Acquire();
      SubtreeRecords(tv, sub);
      IntersectWith(s, sub, scratch);
    } else if (tv->attributes.empty()) {
      // Tree chain ends here: the advertisements' omitted descendants are
      // wildcards, so the records at this leaf satisfy the deeper query.
      std::vector<const NameRecord*>* sub = scratch->Acquire();
      sub->assign(tv->records.begin(), tv->records.end());
      IntersectWith(s, sub, scratch);
    } else {
      // Recurse; the recursive result unions in the records attached at the
      // subtree root (advertisement chains that end at `tv`).
      CandidateSet sub;
      sub.items = scratch->Acquire();
      LookupLevel(tv, query, q.child_begin, q.child_count, &sub, scratch);
      if (!sub.universal) {
        sub.items->insert(sub.items->end(), tv->records.begin(), tv->records.end());
        IntersectWith(s, sub.items, scratch);
      }
      // A universal sub-result means no constraint applied below; S ∩
      // (universal ∪ records) = S.
    }
  }
}

std::vector<const NameRecord*> NameTree::Lookup(const NameSpecifier& query) const {
  thread_local CompiledName compiled;  // reused node capacity across lookups
  CompiledName::ForQueryInto(query, *symbols_, &compiled);
  return Lookup(compiled);
}

namespace {

thread_local NameTree::LookupScratch tls_lookup_scratch;

}  // namespace

std::vector<const NameRecord*> NameTree::Lookup(const CompiledName& query,
                                                LookupScratch* scratch) const {
  LookupScratch* sc = scratch != nullptr ? scratch : &tls_lookup_scratch;
  if (index_ == nullptr) {
    return LookupTreeWalk(query, sc);
  }

  // Plan, from the scratch's memo when this (index state, query) pair was
  // seen before — the hot-destination case the NameDecoder memo feeds.
  const uint64_t qfp = QueryFingerprint(query);
  const QueryPlan* plan = sc->plan_cache_.Find(index_->id(), index_->version(), qfp);
  const bool cache_hit = plan != nullptr;
  if (!cache_hit) {
    QueryPlan* fresh = sc->plan_cache_.Insert(index_->id(), index_->version(), qfp);
    index_->DerivePlan(query, fresh);
    plan = fresh;
  }
  index_->CountOutcome(plan->kind, cache_hit);

  if (plan->NeedsTreeWalk()) {
    return LookupTreeWalk(query, sc);
  }
  std::vector<const NameRecord*> out;
  switch (plan->kind) {
    case QueryPlan::Kind::kUniversal:
      out = AllRecords();
      break;
    case QueryPlan::Kind::kEmpty:
      break;
    case QueryPlan::Kind::kIndex: {
      index_->Evaluate(*plan, &sc->slot_scratch_, &sc->word_scratch_);
      out.reserve(sc->slot_scratch_.size());
      for (uint32_t slot : sc->slot_scratch_) {
        out.push_back(index_->RecordAt(slot));
      }
      std::sort(out.begin(), out.end(), [](const NameRecord* a, const NameRecord* b) {
        return a->announcer < b->announcer;
      });
      break;
    }
    default:
      break;  // fallbacks handled above
  }
  sc->Trim();
  return out;
}

std::vector<const NameRecord*> NameTree::LookupTreeWalk(const CompiledName& query,
                                                        LookupScratch* scratch) const {
  LookupScratch* sc = scratch != nullptr ? scratch : &tls_lookup_scratch;
  sc->Reset();

  CandidateSet s;
  s.items = sc->Acquire();
  LookupLevel(&root_, query, 0, query.root_count(), &s, sc);
  if (s.universal) {
    sc->Trim();
    return AllRecords();
  }
  std::vector<const NameRecord*> out(s.items->begin(), s.items->end());
  std::sort(out.begin(), out.end(), [](const NameRecord* a, const NameRecord* b) {
    return a->announcer < b->announcer;
  });
  sc->Trim();
  return out;
}

void NameTree::LookupScratch::Trim() {
  if (pool_.size() > kMaxRetainedPoolVectors) {
    pool_.resize(kMaxRetainedPoolVectors);
    used_ = std::min(used_, pool_.size());
  }
  for (auto& v : pool_) {
    if (v->capacity() > kMaxRetainedVecEntries) {
      std::vector<const NameRecord*>().swap(*v);
    }
  }
  if (set_slots_.capacity() > kMaxRetainedSetSlots) {
    std::vector<SetSlot>().swap(set_slots_);
    set_gen_ = 0;
  }
  if (slot_scratch_.capacity() > kMaxRetainedSlotEntries) {
    std::vector<uint32_t>().swap(slot_scratch_);
  }
  if (word_scratch_.capacity() > kMaxRetainedSlotEntries) {
    std::vector<uint64_t>().swap(word_scratch_);
  }
}

size_t NameTree::LookupScratch::RetainedBytes() const {
  size_t bytes = set_slots_.capacity() * sizeof(SetSlot) +
                 slot_scratch_.capacity() * sizeof(uint32_t) +
                 word_scratch_.capacity() * sizeof(uint64_t) +
                 pool_.capacity() * sizeof(pool_[0]) + plan_cache_.MemoryBytes();
  for (const auto& v : pool_) {
    bytes += sizeof(*v) + v->capacity() * sizeof(const NameRecord*);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// GET-NAME
//
// The paper augments every value-node with a PTR scratch variable and resets
// the touched ones afterwards; an equivalent side table keeps the tree const.

namespace {

struct ExtractedPair {
  std::string attribute;
  std::string token;
  std::vector<ExtractedPair*> children;
};

struct Extraction {
  std::deque<ExtractedPair> arena;
  ExtractedPair* Alloc(std::string attribute, std::string token) {
    arena.push_back(ExtractedPair{std::move(attribute), std::move(token), {}});
    return &arena.back();
  }
};

void ConvertExtracted(const std::vector<ExtractedPair*>& in, std::vector<AvPair>* out) {
  for (const ExtractedPair* e : in) {
    AvPair* pair = InsertPair(*out, e->attribute, ValueFromToken(e->token));
    ConvertExtracted(e->children, &pair->children);
  }
}

}  // namespace

NameSpecifier NameTree::ExtractName(const NameRecord* record) const {
  Extraction ex;
  ExtractedPair* root_pair = ex.Alloc("", "");
  std::unordered_map<const ValueNode*, ExtractedPair*> ptr;  // the PTR variables
  ptr.emplace(&root_, root_pair);

  // TRACE: walk upward from a leaf value-node until reaching a part of the
  // name-specifier that has already been reconstructed, grafting on the
  // fragment built along the way.
  std::function<void(const ValueNode*, ExtractedPair*)> trace =
      [&](const ValueNode* tv, ExtractedPair* fragment) {
        auto it = ptr.find(tv);
        if (it != ptr.end()) {
          if (fragment != nullptr) {
            it->second->children.push_back(fragment);
          }
          return;
        }
        ExtractedPair* pair =
            ex.Alloc(std::string(symbols_->NameOf(tv->parent_attr->attribute)),
                     std::string(symbols_->NameOf(tv->token)));
        ptr.emplace(tv, pair);
        if (fragment != nullptr) {
          pair->children.push_back(fragment);
        }
        trace(tv->parent_attr->parent, pair);
      };

  for (void* t : record->terminals_) {
    trace(static_cast<const ValueNode*>(t), nullptr);
  }

  NameSpecifier name;
  ConvertExtracted(root_pair->children, &name.mutable_roots());
  return name;
}

// ---------------------------------------------------------------------------
// Bookkeeping

bool NameTree::Remove(const AnnouncerId& id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return false;
  }
  IndexRemoveTerms(it->second.get());
  Ungraft(it->second.get());
  if (index_ != nullptr) {
    index_->ReleaseSlot(it->second->slot_);
  }
  records_.erase(it);
  return true;
}

bool NameTree::RefreshExpiry(const AnnouncerId& id, TimePoint expires) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return false;
  }
  NameRecord* rec = it->second.get();
  if (expires > rec->expires) {
    rec->expires = expires;
    PushExpiry(rec->expires, rec->announcer);
  }
  return true;
}

void NameTree::PushExpiry(TimePoint expires, const AnnouncerId& id) {
  expiry_heap_.emplace_back(expires, id);
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(),
                 std::greater<std::pair<TimePoint, AnnouncerId>>());
}

size_t NameTree::ExpireBefore(TimePoint now, std::vector<AnnouncerId>* expired) {
  // Every live record has a heap entry at its current deadline (pushed when
  // the deadline was set), so popping entries with deadline < now visits a
  // superset of the expired records: cost is O(expired + stale), never a
  // full-tree walk.
  size_t removed = 0;
  auto cmp = std::greater<std::pair<TimePoint, AnnouncerId>>();
  while (!expiry_heap_.empty() && expiry_heap_.front().first < now) {
    ++expiry_scan_visits_;
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), cmp);
    auto [deadline, id] = expiry_heap_.back();
    expiry_heap_.pop_back();
    auto it = records_.find(id);
    if (it == records_.end()) {
      continue;  // stale: record already removed or renamed away
    }
    if (it->second->expires >= now) {
      continue;  // stale: refreshed since this entry was pushed
    }
    IndexRemoveTerms(it->second.get());
    Ungraft(it->second.get());
    if (index_ != nullptr) {
      index_->ReleaseSlot(it->second->slot_);
    }
    records_.erase(it);
    if (expired != nullptr) {
      expired->push_back(id);
    }
    ++removed;
  }
  return removed;
}

const NameRecord* NameTree::Find(const AnnouncerId& id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : it->second.get();
}

NameRecord* NameTree::FindMutable(const AnnouncerId& id) {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : it->second.get();
}

std::vector<const NameRecord*> NameTree::AllRecords() const {
  std::vector<const NameRecord*> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) {
    out.push_back(rec.get());
  }
  return out;  // std::map iteration is already AnnouncerId-ordered
}

NameTree::Stats NameTree::ComputeStats() const {
  Stats st;
  st.records = records_.size();

  // Node strings live in the symbol table (counted below, once); per node we
  // charge the struct itself plus its flat-map and vector footprints.
  constexpr size_t kMapNode = 72;  // std::map red-black node overhead

  std::function<void(const ValueNode&)> walk_value = [&](const ValueNode& v) {
    st.value_nodes += 1;
    st.bytes += sizeof(ValueNode) + v.attributes.MemoryBytes() +
                v.records.capacity() * sizeof(NameRecord*);
    v.attributes.ForEach([&](SymbolId, const std::unique_ptr<AttributeNode>& child) {
      st.attribute_nodes += 1;
      st.bytes += sizeof(AttributeNode) + child->values.MemoryBytes();
      child->values.ForEach([&](SymbolId, const std::unique_ptr<ValueNode>& grandchild) {
        walk_value(*grandchild);
      });
    });
  };
  walk_value(root_);
  st.value_nodes -= 1;  // do not count the pseudo-root

  for (const auto& [id, rec] : records_) {
    st.bytes += kMapNode + sizeof(NameRecord);
    st.bytes += rec->terminals_.capacity() * sizeof(void*);
    st.bytes += rec->endpoint.bindings.capacity() * sizeof(PortBinding);
    for (const PortBinding& b : rec->endpoint.bindings) {
      st.bytes += b.transport.capacity();
    }
  }
  st.expiry_heap_entries = expiry_heap_.size();
  st.bytes += expiry_heap_.capacity() * sizeof(expiry_heap_[0]);

  if (index_ != nullptr) {
    st.index_bytes = index_->MemoryBytes();
    st.bytes += st.index_bytes;
  }

  // A privately owned intern table is part of this tree's footprint; a
  // shared one is accounted once by the owning ShardedNameTree.
  if (owns_symbols_) {
    st.symbol_bytes = symbols_->MemoryBytes();
    st.bytes += st.symbol_bytes;
  }
  return st;
}

std::string NameTree::DebugString() const {
  std::ostringstream os;
  // Sort children by their resolved strings so the rendering is stable
  // regardless of flat-map slot order.
  std::function<void(const ValueNode&, int)> walk = [&](const ValueNode& v, int indent) {
    std::vector<const AttributeNode*> attrs;
    v.attributes.ForEach([&](SymbolId, const std::unique_ptr<AttributeNode>& child) {
      attrs.push_back(child.get());
    });
    std::sort(attrs.begin(), attrs.end(), [&](const AttributeNode* a, const AttributeNode* b) {
      return symbols_->NameOf(a->attribute) < symbols_->NameOf(b->attribute);
    });
    for (const AttributeNode* child : attrs) {
      os << std::string(static_cast<size_t>(indent) * 2, ' ')
         << symbols_->NameOf(child->attribute) << ":\n";
      std::vector<const ValueNode*> vals;
      child->values.ForEach([&](SymbolId, const std::unique_ptr<ValueNode>& grandchild) {
        vals.push_back(grandchild.get());
      });
      std::sort(vals.begin(), vals.end(), [&](const ValueNode* a, const ValueNode* b) {
        return symbols_->NameOf(a->token) < symbols_->NameOf(b->token);
      });
      for (const ValueNode* grandchild : vals) {
        os << std::string(static_cast<size_t>(indent) * 2 + 2, ' ') << "= "
           << symbols_->NameOf(grandchild->token);
        if (!grandchild->records.empty()) {
          os << "  (" << grandchild->records.size() << " record"
             << (grandchild->records.size() == 1 ? "" : "s") << ")";
        }
        os << "\n";
        walk(*grandchild, indent + 2);
      }
    }
  };
  walk(root_, 0);
  return os.str();
}

Status NameTree::CheckInvariants() const {
  // Every record's terminals must point back at value-nodes that list it.
  std::unordered_map<const ValueNode*, size_t> seen;
  std::function<Status(const ValueNode&)> walk = [&](const ValueNode& v) -> Status {
    Status result = Status::Ok();
    v.attributes.ForEach([&](SymbolId key, const std::unique_ptr<AttributeNode>& child) {
      if (!result.ok()) {
        return;
      }
      const std::string attr(symbols_->NameOf(child->attribute));
      if (child->attribute != key) {
        result = InternalError("attribute-node key mismatch: " + attr);
        return;
      }
      if (child->parent != &v) {
        result = InternalError("attribute-node parent pointer broken at " + attr);
        return;
      }
      if (child->values.empty()) {
        result = InternalError("empty attribute-node not pruned: " + attr);
        return;
      }
      child->values.ForEach([&](SymbolId vkey, const std::unique_ptr<ValueNode>& grandchild) {
        if (!result.ok()) {
          return;
        }
        const std::string val(symbols_->NameOf(grandchild->token));
        if (grandchild->token != vkey) {
          result = InternalError("value-node key mismatch: " + val);
          return;
        }
        if (grandchild->parent_attr != child.get()) {
          result = InternalError("value-node parent pointer broken at " + val);
          return;
        }
        if (grandchild->records.empty() && grandchild->attributes.empty()) {
          result = InternalError("empty value-node not pruned: " + val);
          return;
        }
        // The graft-time numeric cache must agree with a fresh parse.
        std::optional<double> parsed = ParseNumeric(val);
        if (parsed.has_value() != grandchild->has_number ||
            (parsed.has_value() && *parsed != grandchild->number)) {
          result = InternalError("stale cached numeric at value " + val);
          return;
        }
        seen[grandchild.get()] = grandchild->records.size();
        result = walk(*grandchild);
      });
    });
    return result;
  };
  INS_RETURN_IF_ERROR(walk(root_));

  size_t terminal_refs = 0;
  for (const auto& [id, rec] : records_) {
    if (!(id == rec->announcer)) {
      return InternalError("record keyed under wrong announcer: " + id.ToString());
    }
    if (rec->terminals_.empty()) {
      return InternalError("record with no terminals: " + id.ToString());
    }
    for (void* t : rec->terminals_) {
      const auto* tv = static_cast<const ValueNode*>(t);
      auto it = seen.find(tv);
      if (it == seen.end()) {
        return InternalError("record terminal points outside the tree: " + id.ToString());
      }
      if (std::find(tv->records.begin(), tv->records.end(), rec.get()) == tv->records.end()) {
        return InternalError("terminal value-node does not list its record: " + id.ToString());
      }
      ++terminal_refs;
    }
  }
  size_t listed = 0;
  for (const auto& [node, n] : seen) {
    listed += n;
  }
  if (listed != terminal_refs) {
    return InternalError("terminal reference count mismatch: tree lists " +
                         std::to_string(listed) + ", records hold " +
                         std::to_string(terminal_refs));
  }

  // Expiry-heap invariants: heap-ordered, and every live record has an entry
  // at its current deadline (else ExpireBefore could miss it).
  if (!std::is_heap(expiry_heap_.begin(), expiry_heap_.end(),
                    std::greater<std::pair<TimePoint, AnnouncerId>>())) {
    return InternalError("expiry heap order violated");
  }
  for (const auto& [id, rec] : records_) {
    bool covered = false;
    for (const auto& [deadline, hid] : expiry_heap_) {
      if (hid == id && deadline == rec->expires) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return InternalError("record not covered by expiry heap: " + id.ToString());
    }
  }

  // Posting-index invariants: rebuild the expected maps from the tree (path
  // fingerprints chained root -> leaf; subtree slot sets deduped, a record
  // with several terminals below a node is one posting member) and demand
  // exact key-set and membership equality.
  if (index_ != nullptr) {
    std::unordered_map<uint64_t, std::vector<uint32_t>> expected_sub;
    std::unordered_map<uint64_t, uint32_t> expected_end;
    std::unordered_map<uint64_t, uint32_t> expected_attr;
    // Returns the sorted-unique slot set of the subtree rooted at `v`.
    std::function<std::vector<uint32_t>(const ValueNode&, uint64_t)> walk_index =
        [&](const ValueNode& v, uint64_t fp) -> std::vector<uint32_t> {
      std::vector<uint32_t> slots;
      for (const NameRecord* rec : v.records) {
        slots.push_back(rec->slot_);
      }
      if (!v.records.empty()) {
        expected_end[fp] = static_cast<uint32_t>(v.records.size());
      }
      v.attributes.ForEach([&](SymbolId, const std::unique_ptr<AttributeNode>& child) {
        const uint64_t afp = PostingIndex::AttrFp(fp, child->attribute);
        std::vector<uint32_t> under_attr;
        child->values.ForEach([&](SymbolId, const std::unique_ptr<ValueNode>& grandchild) {
          const uint64_t vfp =
              PostingIndex::ValueFp(fp, child->attribute, grandchild->token);
          std::vector<uint32_t> sub = walk_index(*grandchild, vfp);
          expected_sub[vfp] = sub;
          under_attr.insert(under_attr.end(), sub.begin(), sub.end());
        });
        std::sort(under_attr.begin(), under_attr.end());
        under_attr.erase(std::unique(under_attr.begin(), under_attr.end()),
                         under_attr.end());
        expected_attr[afp] = static_cast<uint32_t>(under_attr.size());
        slots.insert(slots.end(), under_attr.begin(), under_attr.end());
      });
      std::sort(slots.begin(), slots.end());
      slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
      return slots;
    };
    walk_index(root_, PostingIndex::kRootFp);
    for (const auto& [id, rec] : records_) {
      if (rec->slot_ == 0xFFFFFFFFu || index_->RecordAt(rec->slot_) != rec.get()) {
        return InternalError("record slot does not round-trip through the index: " +
                             id.ToString());
      }
    }
    INS_RETURN_IF_ERROR(
        index_->VerifyAgainst(expected_sub, expected_end, expected_attr, records_.size()));
  }
  return Status::Ok();
}

}  // namespace ins
