#include "ins/nametree/posting_index.h"

#include <algorithm>
#include <cassert>

namespace ins {

// ---------------------------------------------------------------------------
// PostingList

bool PostingList::Add(uint32_t slot, size_t capacity) {
  if (is_bitmap_) {
    const size_t w = slot / 64;
    if (w >= words_.size()) {
      words_.resize(w + 1, 0);
    }
    assert((words_[w] & (UINT64_C(1) << (slot % 64))) == 0);
    words_[w] |= UINT64_C(1) << (slot % 64);
    ++count_;
    return false;
  }
  if (sorted_.empty() || slot > sorted_.back()) {
    // Fresh slots are allocated in increasing order, so bulk population is
    // O(1) amortized per posting entry.
    sorted_.push_back(slot);
  } else {
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(), slot);
    assert(it == sorted_.end() || *it != slot);
    sorted_.insert(it, slot);
  }
  ++count_;
  if (count_ >= kPromoteMinCount &&
      static_cast<size_t>(count_) * kPromoteDensity >= capacity) {
    Promote(capacity);
    return true;
  }
  return false;
}

bool PostingList::Remove(uint32_t slot, size_t capacity) {
  assert(count_ > 0);
  if (is_bitmap_) {
    const size_t w = slot / 64;
    assert(w < words_.size() && (words_[w] & (UINT64_C(1) << (slot % 64))) != 0);
    words_[w] &= ~(UINT64_C(1) << (slot % 64));
    --count_;
    if (count_ < kPromoteMinCount / 2 ||
        static_cast<size_t>(count_) * kDemoteDensity < capacity) {
      Demote();
      return true;
    }
    return false;
  }
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), slot);
  assert(it != sorted_.end() && *it == slot);
  sorted_.erase(it);
  --count_;
  return false;
}

bool PostingList::Contains(uint32_t slot) const {
  if (is_bitmap_) {
    const size_t w = slot / 64;
    return w < words_.size() && (words_[w] & (UINT64_C(1) << (slot % 64))) != 0;
  }
  return std::binary_search(sorted_.begin(), sorted_.end(), slot);
}

void PostingList::Promote(size_t capacity) {
  words_.assign((std::max(capacity, size_t{1}) + 63) / 64, 0);
  for (uint32_t s : sorted_) {
    const size_t w = s / 64;
    if (w >= words_.size()) {
      words_.resize(w + 1, 0);
    }
    words_[w] |= UINT64_C(1) << (s % 64);
  }
  std::vector<uint32_t>().swap(sorted_);
  is_bitmap_ = true;
}

void PostingList::Demote() {
  sorted_.clear();
  sorted_.reserve(count_);
  ForEachAscending([this](uint32_t s) { sorted_.push_back(s); });
  std::vector<uint64_t>().swap(words_);
  is_bitmap_ = false;
}

Status PostingList::CheckInvariants() const {
  if (is_bitmap_) {
    if (!sorted_.empty()) {
      return InternalError("bitmap posting retains a sorted array");
    }
    uint64_t bits = 0;
    for (uint64_t w : words_) {
      bits += static_cast<uint64_t>(__builtin_popcountll(w));
    }
    if (bits != count_) {
      return InternalError("bitmap posting count drifted from popcount");
    }
    return Status::Ok();
  }
  if (!words_.empty()) {
    return InternalError("sorted posting retains bitmap words");
  }
  if (sorted_.size() != count_) {
    return InternalError("sorted posting count drifted from array size");
  }
  if (!std::is_sorted(sorted_.begin(), sorted_.end()) ||
      std::adjacent_find(sorted_.begin(), sorted_.end()) != sorted_.end()) {
    return InternalError("sorted posting not strictly ascending");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// PostingIndexStats

PostingIndexStats& PostingIndexStats::operator+=(const PostingIndexStats& o) {
  index_lookups += o.index_lookups;
  empty_lookups += o.empty_lookups;
  universal_lookups += o.universal_lookups;
  fallback_wildcard += o.fallback_wildcard;
  fallback_range += o.fallback_range;
  fallback_union += o.fallback_union;
  plan_hits += o.plan_hits;
  plan_misses += o.plan_misses;
  promotions += o.promotions;
  demotions += o.demotions;
  posting_keys += o.posting_keys;
  bytes += o.bytes;
  return *this;
}

// ---------------------------------------------------------------------------
// PostingIndex: writer side

PostingIndex::PostingIndex() {
  static std::atomic<uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

uint32_t PostingIndex::AcquireSlot(const NameRecord* rec) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(nullptr);
  }
  slots_[slot] = rec;
  ++live_slots_;
  BumpVersion();
  return slot;
}

void PostingIndex::ReleaseSlot(uint32_t slot) {
  assert(slot < slots_.size() && slots_[slot] != nullptr);
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
  --live_slots_;
  BumpVersion();
}

uint64_t PostingIndex::AddTerm(uint64_t parent_fp, SymbolId attribute, SymbolId token,
                               bool terminal, uint32_t slot) {
  ++attr_count_[AttrFp(parent_fp, attribute)];
  const uint64_t vfp = ValueFp(parent_fp, attribute, token);
  if (sub_[vfp].Add(slot, slots_.size())) {
    ++promotions_;
  }
  if (terminal) {
    ++end_count_[vfp];
  }
  BumpVersion();
  return vfp;
}

void PostingIndex::RemoveTerm(uint64_t vfp, uint64_t afp, bool terminal, uint32_t slot) {
  auto sub_it = sub_.find(vfp);
  assert(sub_it != sub_.end());
  if (sub_it->second.Remove(slot, slots_.size())) {
    ++demotions_;
  }
  if (sub_it->second.count() == 0) {
    // Key presence mirrors the pruned tree: an empty posting would make plan
    // derivation disagree with LOOKUP-NAME's "value advertised nowhere".
    sub_.erase(sub_it);
  }
  if (terminal) {
    auto end_it = end_count_.find(vfp);
    assert(end_it != end_count_.end() && end_it->second > 0);
    if (--end_it->second == 0) {
      end_count_.erase(end_it);
    }
  }
  auto attr_it = attr_count_.find(afp);
  assert(attr_it != attr_count_.end() && attr_it->second > 0);
  if (--attr_it->second == 0) {
    attr_count_.erase(attr_it);
  }
  BumpVersion();
}

// ---------------------------------------------------------------------------
// Plan derivation
//
// Mirrors NameTree::LookupLevel conjunct by conjunct using index state only.
// The structural facts it branches on are exact mirrors of the tree:
//   attr_count_ holds afp      <=> the attribute node exists (Ta != null)
//   sub_ holds vfp             <=> the value node exists
//   sub count == end count     <=> the value node has no attribute children
//                                  (every record under it attaches there),
//                                  in which case End == Sub.
//   attr count == parent count <=> every record at or below the parent
//                                  grafts through the attribute (sibling
//                                  attributes are unique, so a record counts
//                                  at most once), in which case the wildcard
//                                  union over Ta equals Sub(parent).

PostingIndex::LevelResult PostingIndex::DeriveLevel(const CompiledName& query,
                                                    uint32_t begin, uint32_t count,
                                                    uint64_t parent_fp,
                                                    const PostingList* parent,
                                                    QueryPlan* out) const {
  const std::vector<CompiledAvNode>& nodes = query.nodes();
  const size_t parent_count = parent != nullptr ? parent->count() : live_slots_;
  bool constrained = false;
  bool fallback = false;
  for (uint32_t qi = begin; qi < begin + count; ++qi) {
    const CompiledAvNode& n = nodes[qi];
    auto attr_it = n.attribute == kInvalidSymbol
                       ? attr_count_.end()
                       : attr_count_.find(AttrFp(parent_fp, n.attribute));
    if (attr_it == attr_count_.end()) {
      continue;  // `if Ta = null then continue`: conjunct is unconstraining
    }
    if (n.kind == Value::Kind::kWildcard && attr_it->second == parent_count) {
      // Count proof: the wildcard's union is all of Sub(parent). At the root
      // that is every record (unconstraining); below a literal parent it is
      // the parent's own posting.
      if (parent != nullptr) {
        out->terms.push_back(parent);
        constrained = true;
      }
      continue;
    }
    if (n.kind != Value::Kind::kLiteral) {
      // Other wildcard and range levels stay on the tree path. Keep
      // scanning: a later empty literal still proves the whole level empty,
      // in which case the tree walk is unnecessary.
      if (!fallback) {
        out->kind = n.kind == Value::Kind::kWildcard ? QueryPlan::Kind::kFallbackWildcard
                                                     : QueryPlan::Kind::kFallbackRange;
        fallback = true;
      }
      continue;
    }
    auto sub_it = n.token == kInvalidSymbol ? sub_.end()
                                            : sub_.find(ValueFp(parent_fp, n.attribute, n.token));
    if (sub_it == sub_.end()) {
      // Attribute present but this value advertised nowhere under it: the
      // level — and with it the conjunct's whole subtree product — is empty.
      return LevelResult::kEmpty;
    }
    const PostingList* sub = &sub_it->second;
    if (n.child_count == 0) {
      out->terms.push_back(sub);  // query chain ends: Sub(p')
      constrained = true;
      continue;
    }
    auto end_it = end_count_.find(sub_it->first);
    const uint32_t end = end_it == end_count_.end() ? 0 : end_it->second;
    if (sub->count() == end) {
      out->terms.push_back(sub);  // tree chain ends: End(p') == Sub(p')
      constrained = true;
      continue;
    }
    if (end != 0) {
      // Union-at-return: conjunct value is Recurse(C) ∪ End(p'), and End is
      // not materialized as a posting. Tree walk.
      if (!fallback) {
        out->kind = QueryPlan::Kind::kFallbackUnion;
        fallback = true;
      }
      continue;
    }
    // No records attached at this interior node: the conjunct value is
    // exactly the recursive level's value, so its terms flatten into this
    // intersection (conjunct-level intersection is associative).
    switch (DeriveLevel(query, n.child_begin, n.child_count, sub_it->first, sub, out)) {
      case LevelResult::kEmpty:
        return LevelResult::kEmpty;  // ∅ ∪ End(p') = ∅ when end == 0
      case LevelResult::kConstrained:
        constrained = true;
        break;
      case LevelResult::kFallback:
        fallback = true;  // reason already recorded in out->kind
        break;
      case LevelResult::kUniversal:
        break;  // no constraint below: S ∩ (universal ∪ ∅) = S
    }
  }
  if (fallback) {
    return LevelResult::kFallback;
  }
  return constrained ? LevelResult::kConstrained : LevelResult::kUniversal;
}

void PostingIndex::DerivePlan(const CompiledName& query, QueryPlan* out) const {
  out->terms.clear();
  out->kind = QueryPlan::Kind::kUniversal;
  switch (DeriveLevel(query, 0, query.root_count(), kRootFp, nullptr, out)) {
    case LevelResult::kUniversal:
      out->kind = QueryPlan::Kind::kUniversal;
      out->terms.clear();
      break;
    case LevelResult::kEmpty:
      out->kind = QueryPlan::Kind::kEmpty;
      out->terms.clear();
      break;
    case LevelResult::kConstrained:
      out->kind = QueryPlan::Kind::kIndex;
      break;
    case LevelResult::kFallback:
      out->terms.clear();  // kind holds the fallback reason
      break;
  }
}

// ---------------------------------------------------------------------------
// Evaluation

namespace {

// Galloping membership probe over a sorted posting, resuming from *pos.
// Probe slots arrive ascending, so the cursor sweeps its list once per
// evaluation regardless of how many probes land in it.
inline bool SortedAdvanceContains(const std::vector<uint32_t>& v, size_t* pos,
                                  uint32_t slot) {
  const size_t n = v.size();
  size_t i = *pos;
  if (i >= n) {
    return false;
  }
  if (v[i] < slot) {
    size_t step = 1;
    size_t j = i + 1;
    while (j < n && v[j] < slot) {
      i = j;
      j += step;
      step <<= 1;
    }
    const size_t hi = std::min(j, n - 1) + 1;  // v[hi-1] >= slot or hi == n
    i = static_cast<size_t>(
        std::lower_bound(v.begin() + static_cast<ptrdiff_t>(i) + 1,
                         v.begin() + static_cast<ptrdiff_t>(hi), slot) -
        v.begin());
    *pos = i;
    if (i >= n) {
      return false;
    }
  }
  return v[i] == slot;
}

// Keeps the slots of ascending `*slots` that are set in `bitmap`. Branch-free:
// membership of a candidate is a coin flip the predictor cannot learn.
void FilterByBitmap(const PostingList& bitmap, std::vector<uint32_t>* slots) {
  const std::vector<uint64_t>& words = bitmap.words();
  uint32_t* out = slots->data();
  size_t kept = 0;
  for (const uint32_t s : *slots) {
    const size_t w = s / 64;
    const uint64_t word = w < words.size() ? words[w] : 0;
    out[kept] = s;
    kept += (word >> (s % 64)) & 1;
  }
  slots->resize(kept);
}

// Keeps the slots of ascending `*slots` that are in ascending `v`, by
// galloping probes from one cursor that sweeps `v` once.
void IntersectSorted(const std::vector<uint32_t>& v, std::vector<uint32_t>* slots) {
  uint32_t* out = slots->data();
  const size_t n = slots->size();
  size_t kept = 0;
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t a = out[i];
    if (SortedAdvanceContains(v, &pos, a)) {
      out[kept++] = a;  // kept <= i: never overwrites an unread candidate
    }
  }
  slots->resize(kept);
}

}  // namespace

void PostingIndex::Evaluate(const QueryPlan& plan, std::vector<uint32_t>* out_slots,
                            std::vector<uint64_t>* word_scratch) const {
  assert(plan.kind == QueryPlan::Kind::kIndex && !plan.terms.empty());
  out_slots->clear();

  // The plan's postings were resolved at derivation, against this index at
  // this version; no probe of sub_ here.
  const PostingList* const* lists = plan.terms.data();
  const size_t nterms = plan.terms.size();
  size_t rarest = 0;
  bool all_bitmap = true;
  for (size_t i = 0; i < nterms; ++i) {
    all_bitmap = all_bitmap && lists[i]->is_bitmap();
    if (lists[i]->count() < lists[rarest]->count()) {
      rarest = i;
    }
  }

  if (all_bitmap && nterms > 1) {
    // Word-parallel AND. Words past any operand's tail are zero in the
    // result, so the kernel runs over the shortest operand.
    size_t nwords = lists[0]->words().size();
    for (size_t i = 1; i < nterms; ++i) {
      nwords = std::min(nwords, lists[i]->words().size());
    }
    word_scratch->assign(lists[rarest]->words().begin(),
                         lists[rarest]->words().begin() + static_cast<ptrdiff_t>(nwords));
    for (size_t i = 0; i < nterms; ++i) {
      if (i == rarest) {
        continue;
      }
      const std::vector<uint64_t>& w = lists[i]->words();
      for (size_t k = 0; k < nwords; ++k) {
        (*word_scratch)[k] &= w[k];
      }
    }
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t bits = (*word_scratch)[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        out_slots->push_back(static_cast<uint32_t>(w * 64 + static_cast<size_t>(b)));
        bits &= bits - 1;
      }
    }
    return;
  }

  // Rarest-first: copy the smallest posting out in ascending order, then
  // filter the candidates in place by every other term — bitmaps first (one
  // bit test each), then sorted arrays.
  out_slots->reserve(lists[rarest]->count());
  lists[rarest]->ForEachAscending([&](uint32_t s) { out_slots->push_back(s); });
  for (size_t i = 0; i < nterms; ++i) {
    if (i != rarest && lists[i]->is_bitmap()) {
      FilterByBitmap(*lists[i], out_slots);
    }
  }
  for (size_t i = 0; i < nterms && !out_slots->empty(); ++i) {
    if (i != rarest && !lists[i]->is_bitmap()) {
      IntersectSorted(lists[i]->sorted(), out_slots);
    }
  }
}

// ---------------------------------------------------------------------------
// Accounting / verification

void PostingIndex::CountOutcome(QueryPlan::Kind kind, bool plan_cache_hit) const {
  (plan_cache_hit ? plan_hits_ : plan_misses_).fetch_add(1, std::memory_order_relaxed);
  switch (kind) {
    case QueryPlan::Kind::kIndex:
      index_lookups_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kEmpty:
      empty_lookups_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kUniversal:
      universal_lookups_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kFallbackWildcard:
      fallback_wildcard_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kFallbackRange:
      fallback_range_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryPlan::Kind::kFallbackUnion:
      fallback_union_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

PostingIndexStats PostingIndex::Stats() const {
  PostingIndexStats st;
  st.index_lookups = index_lookups_.load(std::memory_order_relaxed);
  st.empty_lookups = empty_lookups_.load(std::memory_order_relaxed);
  st.universal_lookups = universal_lookups_.load(std::memory_order_relaxed);
  st.fallback_wildcard = fallback_wildcard_.load(std::memory_order_relaxed);
  st.fallback_range = fallback_range_.load(std::memory_order_relaxed);
  st.fallback_union = fallback_union_.load(std::memory_order_relaxed);
  st.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  st.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  st.promotions = promotions_;
  st.demotions = demotions_;
  st.posting_keys = sub_.size();
  st.bytes = MemoryBytes();
  return st;
}

size_t PostingIndex::MemoryBytes() const {
  // Hash nodes: key + value + the libstdc++ node header; buckets: one
  // pointer each. The same estimate style ComputeStats uses for std::map.
  constexpr size_t kHashNode = 16;
  size_t bytes = slots_.capacity() * sizeof(const NameRecord*) +
                 free_slots_.capacity() * sizeof(uint32_t);
  bytes += sub_.bucket_count() * sizeof(void*);
  for (const auto& [fp, list] : sub_) {
    bytes += sizeof(fp) + sizeof(PostingList) + kHashNode + list.MemoryBytes();
  }
  bytes += end_count_.bucket_count() * sizeof(void*) +
           end_count_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + kHashNode);
  bytes += attr_count_.bucket_count() * sizeof(void*) +
           attr_count_.size() * (sizeof(uint64_t) + sizeof(uint32_t) + kHashNode);
  return bytes;
}

Status PostingIndex::VerifyAgainst(
    const std::unordered_map<uint64_t, std::vector<uint32_t>>& expected_sub,
    const std::unordered_map<uint64_t, uint32_t>& expected_end,
    const std::unordered_map<uint64_t, uint32_t>& expected_attr,
    size_t live_records) const {
  if (live_slots_ != live_records) {
    return InternalError("posting index live-slot count drifted from record count");
  }
  size_t occupied = 0;
  for (const NameRecord* rec : slots_) {
    occupied += rec != nullptr ? 1 : 0;
  }
  if (occupied != live_records || occupied + free_slots_.size() != slots_.size()) {
    return InternalError("posting index slot allocator inconsistent");
  }

  if (sub_.size() != expected_sub.size()) {
    return InternalError("posting index sub key count mismatch: index " +
                         std::to_string(sub_.size()) + ", tree " +
                         std::to_string(expected_sub.size()));
  }
  std::vector<uint32_t> got;
  for (const auto& [fp, want] : expected_sub) {
    auto it = sub_.find(fp);
    if (it == sub_.end()) {
      return InternalError("posting missing for a live value path");
    }
    INS_RETURN_IF_ERROR(it->second.CheckInvariants());
    got.clear();
    it->second.ForEachAscending([&](uint32_t s) { got.push_back(s); });
    if (got != want) {
      return InternalError("posting membership diverged from the tree");
    }
  }

  if (end_count_.size() != expected_end.size()) {
    return InternalError("posting index end-count key count mismatch");
  }
  for (const auto& [fp, want] : expected_end) {
    auto it = end_count_.find(fp);
    if (it == end_count_.end() || it->second != want) {
      return InternalError("posting index end count diverged from the tree");
    }
  }

  if (attr_count_.size() != expected_attr.size()) {
    return InternalError("posting index attr-count key count mismatch");
  }
  for (const auto& [fp, want] : expected_attr) {
    auto it = attr_count_.find(fp);
    if (it == attr_count_.end() || it->second != want) {
      return InternalError("posting index attr count diverged from the tree");
    }
  }
  return Status::Ok();
}

}  // namespace ins
