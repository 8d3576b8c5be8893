// Property tests for the posting-list secondary index (posting_index.h).
//
// Four families, each pinning one piece of the index's contract with the
// Figure-5 tree walk it replaces on the hot path:
//
//   * intersection invariance — a derived plan's result set is unchanged
//     under any reordering of its intersection terms (the rarest-first
//     evaluation order is an optimization, never a semantic);
//   * monotone shrinkage — strengthening a query (adding a conjunct at the
//     root or deepening a chain) never grows the result set;
//   * promotion/demotion round-trips — posting lists crossing the density
//     threshold re-encode between sorted-array and bitmap representations
//     without changing membership, with hysteresis on the way down;
//   * fallback equivalence — range and union-at-return queries, and
//     wildcards over an attribute some record omits, take the tree walk and
//     agree with an index-free tree exactly; wildcards the attribute counts
//     prove unconstraining are served by the plan and agree just the same.
//
// Plus the LookupScratch retention regression: a degenerate query against a
// large tree must not leave megabytes pinned in the thread's scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ins/common/rng.h"
#include "ins/name/compiled_name.h"
#include "ins/nametree/name_tree.h"
#include "ins/nametree/posting_index.h"
#include "ins/workload/namegen.h"

namespace ins {
namespace {

NameRecord MakeRecord(uint32_t n) {
  NameRecord r;
  r.announcer = AnnouncerId{0x0a000000u + n, 7, n};
  r.expires = Seconds(3600);
  r.version = 1;
  return r;
}

std::set<std::string> Announcers(const std::vector<const NameRecord*>& recs) {
  std::set<std::string> out;
  for (const NameRecord* r : recs) {
    out.insert(r->announcer.ToString());
  }
  return out;
}

NameTree::Options IndexOff() {
  NameTree::Options o;
  o.enable_posting_index = false;
  return o;
}

// ---------------------------------------------------------------------------
// Intersection invariance under conjunct reordering.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, PlanResultInvariantUnderTermReordering) {
  Rng rng(17);
  NameTree tree;
  for (uint32_t i = 1; i <= 600; ++i) {
    tree.Upsert(GenerateUniformName(rng, UniformNameParams{4, 3, 3, 2}), MakeRecord(i));
  }
  const PostingIndex* index = tree.posting_index();
  ASSERT_NE(index, nullptr);

  size_t multi_term_plans = 0;
  std::vector<uint32_t> slots_a;
  std::vector<uint32_t> slots_b;
  std::vector<uint64_t> words;
  for (int q = 0; q < 400; ++q) {
    const NameSpecifier query = GenerateUniformName(rng, UniformNameParams{4, 3, 3, 2});
    const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
    QueryPlan plan;
    index->DerivePlan(cq, &plan);
    if (plan.kind != QueryPlan::Kind::kIndex || plan.terms.size() < 2) {
      continue;
    }
    ++multi_term_plans;
    index->Evaluate(plan, &slots_a, &words);

    // Every permutation round: shuffle, re-evaluate, same ascending slots.
    for (int round = 0; round < 4; ++round) {
      for (size_t i = plan.terms.size(); i > 1; --i) {
        std::swap(plan.terms[i - 1], plan.terms[rng.NextBelow(i)]);
      }
      index->Evaluate(plan, &slots_b, &words);
      ASSERT_EQ(slots_a, slots_b) << "term order changed the intersection on "
                                  << query.ToString();
    }

    // And the slots agree with the Figure-5 walk on the same tree.
    std::set<std::string> via_index;
    for (uint32_t s : slots_a) {
      via_index.insert(index->RecordAt(s)->announcer.ToString());
    }
    EXPECT_EQ(via_index, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
  }
  // The workload actually produced conjunctive multi-term plans.
  EXPECT_GT(multi_term_plans, 20u);
}

// ---------------------------------------------------------------------------
// Monotone shrinkage under query strengthening.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, StrengtheningAQueryNeverGrowsTheResult) {
  Rng rng(29);
  NameTree tree;
  for (uint32_t i = 1; i <= 500; ++i) {
    tree.Upsert(GenerateUniformName(rng, UniformNameParams{5, 3, 4, 2}), MakeRecord(i));
  }

  size_t strict_shrinks = 0;
  for (int q = 0; q < 300; ++q) {
    // Build a root conjunction one av-pair at a time; each extension must
    // yield a subset of the previous result (with the index serving the
    // literal plans and the walk cross-checked at every step).
    NameSpecifier query;
    std::set<std::string> prev;
    bool first = true;
    // Distinct root attributes (the per-level uniqueness invariant), drawn
    // from the generator's pools so the conjuncts genuinely select.
    std::vector<size_t> attrs{0, 1, 2, 3, 4};
    for (size_t i = attrs.size(); i > 1; --i) {
      std::swap(attrs[i - 1], attrs[rng.NextBelow(i)]);
    }
    const size_t conjuncts = 2 + rng.NextBelow(3);
    for (size_t k = 0; k < conjuncts; ++k) {
      query.AddPath({{"a0_" + std::to_string(attrs[k]),
                      "v" + std::to_string(rng.NextBelow(3))}});
      const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
      const std::set<std::string> now = Announcers(tree.Lookup(cq));
      EXPECT_EQ(now, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
      if (!first) {
        EXPECT_TRUE(std::includes(prev.begin(), prev.end(), now.begin(), now.end()))
            << "strengthened query grew the result: " << query.ToString();
        strict_shrinks += now.size() < prev.size() ? 1 : 0;
      }
      first = false;
      prev = now;
    }
  }
  // The property was not vacuous: conjuncts genuinely constrained results.
  EXPECT_GT(strict_shrinks, 50u);
}

TEST(PostingIndexPropertyTest, DeepeningAChainShrinksOrGoesUniversal) {
  // Nested strengthening is monotone EXCEPT through Figure 5's
  // `Ta = null -> continue` rule: when the deeper attribute is absent under
  // the matched node, the recursion level is universal and the conjunct
  // stops constraining entirely — the result lawfully jumps to all records.
  // The index must reproduce that exact dichotomy: every deepened query
  // either shrinks the result or returns the universal set, and always
  // agrees with the walk.
  Rng rng(31);
  NameTree tree;
  for (uint32_t i = 1; i <= 400; ++i) {
    tree.Upsert(GenerateChainName(rng, 3, 4, 3), MakeRecord(i));
  }
  const std::set<std::string> all = Announcers(tree.AllRecords());

  size_t shrinks = 0;
  size_t universal_jumps = 0;
  for (int q = 0; q < 200; ++q) {
    std::vector<std::pair<std::string, std::string>> chain;
    std::set<std::string> prev;
    bool first = true;
    for (size_t depth = 1; depth <= 3; ++depth) {
      chain.emplace_back("a" + std::to_string(depth - 1) + "_" +
                             std::to_string(rng.NextBelow(4)),
                         "v" + std::to_string(rng.NextBelow(3)));
      NameSpecifier query;
      query.AddPath(chain);
      const CompiledName cq = CompiledName::ForQuery(query, tree.symbols());
      const std::set<std::string> now = Announcers(tree.Lookup(cq));
      EXPECT_EQ(now, Announcers(tree.LookupTreeWalk(cq))) << query.ToString();
      if (!first) {
        const bool shrank =
            std::includes(prev.begin(), prev.end(), now.begin(), now.end());
        EXPECT_TRUE(shrank || now == all)
            << "deepened query grew the result without going universal: "
            << query.ToString();
        shrinks += shrank && now.size() < prev.size() ? 1 : 0;
        universal_jumps += !shrank ? 1 : 0;
      }
      first = false;
      prev = now;
    }
  }
  // Both arms of the dichotomy actually occurred in the sweep.
  EXPECT_GT(shrinks, 20u);
  EXPECT_GT(universal_jumps, 5u);
}

// ---------------------------------------------------------------------------
// Promotion / demotion round-trips at the density threshold.
// ---------------------------------------------------------------------------

TEST(PostingListTest, PromotionAndDemotionRoundTripPreservesMembership) {
  PostingList list;
  constexpr size_t kCapacity = 1024;

  // Every 3rd slot: dense enough to promote well past the minimum count.
  std::vector<uint32_t> members;
  for (uint32_t s = 0; s < kCapacity; s += 3) {
    members.push_back(s);
  }
  bool promoted = false;
  for (uint32_t s : members) {
    promoted |= list.Add(s, kCapacity);
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(list.is_bitmap());
  EXPECT_EQ(list.count(), members.size());

  // Membership and ascending iteration survive the encoding change.
  std::vector<uint32_t> seen;
  list.ForEachAscending([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, members);
  for (uint32_t s = 0; s < kCapacity; ++s) {
    EXPECT_EQ(list.Contains(s), s % 3 == 0) << s;
  }

  // Remove down through the hysteresis band: the list must demote and the
  // survivors must be exactly the members never removed.
  bool demoted = false;
  while (members.size() > 4) {
    const uint32_t victim = members.back();
    members.pop_back();
    demoted |= list.Remove(victim, kCapacity);
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
  EXPECT_TRUE(demoted);
  EXPECT_FALSE(list.is_bitmap());
  seen.clear();
  list.ForEachAscending([&](uint32_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, members);
}

TEST(PostingListTest, OscillatingAtTheThresholdDoesNotThrash) {
  PostingList list;
  constexpr size_t kCapacity = 4096;
  for (uint32_t s = 0; s < 80; ++s) {
    list.Add(s, kCapacity);
  }
  ASSERT_TRUE(list.is_bitmap());  // 80 >= 64 and 80 * 64 >= 4096

  // One add/remove per step right at the promotion boundary: hysteresis
  // (demotion waits for half the density) keeps the representation stable.
  for (int step = 0; step < 200; ++step) {
    list.Remove(static_cast<uint32_t>(step % 80), kCapacity);
    EXPECT_TRUE(list.is_bitmap()) << "demoted at count 79, inside the hysteresis band";
    list.Add(static_cast<uint32_t>(step % 80), kCapacity);
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
}

TEST(PostingIndexPropertyTest, TreeChurnPromotesAndDemotesWithIdenticalResults) {
  NameTree tree;
  // 300 records share [svc=hot]; the posting for that value path covers the
  // whole slot universe and must promote to a bitmap.
  for (uint32_t i = 1; i <= 300; ++i) {
    NameSpecifier n;
    n.AddPath({{"svc", "hot"}, {"unit", "u" + std::to_string(i)}});
    tree.Upsert(n, MakeRecord(i));
  }
  const PostingIndex* index = tree.posting_index();
  ASSERT_NE(index, nullptr);
  PostingIndexStats stats = tree.index_stats();
  EXPECT_GT(stats.promotions, 0u);

  const uint64_t vfp = PostingIndex::ValueFp(PostingIndex::kRootFp,
                                             tree.symbols().Find("svc"),
                                             tree.symbols().Find("hot"));
  const PostingList* posting = index->FindPosting(vfp);
  ASSERT_NE(posting, nullptr);
  EXPECT_TRUE(posting->is_bitmap());
  EXPECT_EQ(posting->count(), 300u);

  NameSpecifier q;
  q.AddPath({{"svc", "hot"}});
  const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
  EXPECT_EQ(Announcers(tree.Lookup(cq)), Announcers(tree.LookupTreeWalk(cq)));
  EXPECT_EQ(tree.Lookup(cq).size(), 300u);

  // Churn 290 of the records out: the posting must demote back to a sorted
  // array and keep answering identically.
  for (uint32_t i = 1; i <= 290; ++i) {
    ASSERT_TRUE(tree.Remove(AnnouncerId{0x0a000000u + i, 7, i}));
  }
  stats = tree.index_stats();
  EXPECT_GT(stats.demotions, 0u);
  posting = index->FindPosting(vfp);
  ASSERT_NE(posting, nullptr);
  EXPECT_FALSE(posting->is_bitmap());
  EXPECT_EQ(posting->count(), 10u);
  EXPECT_EQ(Announcers(tree.Lookup(cq)), Announcers(tree.LookupTreeWalk(cq)));
  EXPECT_EQ(tree.Lookup(cq).size(), 10u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Fallback equivalence for range / wildcard / union-at-return queries.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, WildcardAndRangeQueriesFallBackAndAgree) {
  Rng rng(43);
  NameTree with_index;
  NameTree without(IndexOff());
  for (uint32_t i = 1; i <= 400; ++i) {
    NameSpecifier n;
    n.AddPath({{"svc", "s" + std::to_string(rng.NextBelow(6))},
               {"load", std::to_string(rng.NextBelow(100))}});
    NameRecord rec = MakeRecord(i);
    with_index.Upsert(n, rec);
    without.Upsert(n, rec);
  }

  const PostingIndexStats before = with_index.index_stats();
  for (int q = 0; q < 100; ++q) {
    NameSpecifier wild;
    wild.AddPathValue({}, "svc", Value::Wildcard());
    NameSpecifier range;
    range.AddPathValue({{"svc", "s" + std::to_string(rng.NextBelow(6))}}, "load",
                       Value::Range(Value::Kind::kLess,
                                    static_cast<double>(rng.NextBelow(100))));
    for (const NameSpecifier& query : {wild, range}) {
      const CompiledName ci = CompiledName::ForQuery(query, with_index.symbols());
      const CompiledName co = CompiledName::ForQuery(query, without.symbols());
      const std::set<std::string> got = Announcers(with_index.Lookup(ci));
      EXPECT_EQ(got, Announcers(without.Lookup(co))) << query.ToString();
      EXPECT_EQ(got, Announcers(with_index.LookupTreeWalk(ci))) << query.ToString();
    }
  }
  const PostingIndexStats after = with_index.index_stats();
  // Every name carries svc, so attr_count == live records proves the root
  // [svc=*] unconstraining: served as universal, no walk.
  EXPECT_EQ(after.universal_lookups - before.universal_lookups, 100u);
  EXPECT_EQ(after.fallback_wildcard - before.fallback_wildcard, 0u);
  EXPECT_EQ(after.fallback_range - before.fallback_range, 100u);
  EXPECT_EQ(after.index_lookups, before.index_lookups);  // none served by lists
}

TEST(PostingIndexPropertyTest, WildcardOverPartlyAdvertisedAttributeFallsBack) {
  // A quarter of the names lack svc: the count proof fails, so a root
  // [svc=*] must keep the walk (it excludes exactly those names).
  Rng rng(44);
  NameTree with_index;
  NameTree without(IndexOff());
  for (uint32_t i = 1; i <= 400; ++i) {
    NameSpecifier n;
    if (i % 4 == 0) {
      n.AddPath({{"unit", "u" + std::to_string(rng.NextBelow(6))}});
    } else {
      n.AddPath({{"svc", "s" + std::to_string(rng.NextBelow(6))},
                 {"load", std::to_string(rng.NextBelow(100))}});
    }
    NameRecord rec = MakeRecord(i);
    with_index.Upsert(n, rec);
    without.Upsert(n, rec);
  }

  const PostingIndexStats before = with_index.index_stats();
  NameSpecifier wild;
  wild.AddPathValue({}, "svc", Value::Wildcard());
  for (int q = 0; q < 100; ++q) {
    const CompiledName ci = CompiledName::ForQuery(wild, with_index.symbols());
    const CompiledName co = CompiledName::ForQuery(wild, without.symbols());
    const std::set<std::string> got = Announcers(with_index.Lookup(ci));
    EXPECT_EQ(got.size(), 300u);
    EXPECT_EQ(got, Announcers(without.Lookup(co)));
    EXPECT_EQ(got, Announcers(with_index.LookupTreeWalk(ci)));
  }
  const PostingIndexStats after = with_index.index_stats();
  EXPECT_EQ(after.fallback_wildcard - before.fallback_wildcard, 100u);
  EXPECT_EQ(after.universal_lookups, before.universal_lookups);
}

TEST(PostingIndexPropertyTest, WildcardBelowLiteralServedByCountProof) {
  // [svc=s[load=*]][unit=u1]: under s0 every record carries load, so the
  // wildcard's union is Sub(svc=s0) and the plan intersects postings; under
  // s1 one record carries zone instead of load, so the walk must run (and
  // exclude that record).
  NameTree with_index;
  NameTree without(IndexOff());
  for (uint32_t i = 1; i <= 60; ++i) {
    NameSpecifier n;
    const std::string svc = "s" + std::to_string(i % 2);
    if (i == 7) {
      n.AddPath({{"svc", svc}, {"zone", "z1"}});  // s1 record without load
    } else {
      n.AddPath({{"svc", svc}, {"load", std::to_string(i % 5)}});
    }
    n.AddPath({{"unit", "u" + std::to_string(i % 3)}});
    NameRecord rec = MakeRecord(i);
    with_index.Upsert(n, rec);
    without.Upsert(n, rec);
  }
  auto run = [&](const std::string& svc) {
    NameSpecifier q;
    q.AddPathValue({{"svc", svc}}, "load", Value::Wildcard());
    q.AddPath({{"unit", "u1"}});
    const CompiledName ci = CompiledName::ForQuery(q, with_index.symbols());
    const std::set<std::string> got = Announcers(with_index.Lookup(ci));
    EXPECT_EQ(got, Announcers(without.Lookup(CompiledName::ForQuery(q, without.symbols()))))
        << q.ToString();
    EXPECT_EQ(got, Announcers(with_index.LookupTreeWalk(ci))) << q.ToString();
    return got.size();
  };

  PostingIndexStats before = with_index.index_stats();
  EXPECT_EQ(run("s0"), 10u);  // even i in [1, 60] with i % 3 == 1
  PostingIndexStats after = with_index.index_stats();
  EXPECT_EQ(after.index_lookups - before.index_lookups, 1u);
  EXPECT_EQ(after.fallback_wildcard, before.fallback_wildcard);

  before = after;
  EXPECT_EQ(run("s1"), 9u);  // odd i with i % 3 == 1, minus i == 7
  after = with_index.index_stats();
  EXPECT_EQ(after.fallback_wildcard - before.fallback_wildcard, 1u);
  EXPECT_EQ(after.index_lookups, before.index_lookups);
}

TEST(PostingIndexPropertyTest, UnionAtReturnQueriesFallBackAndAgree) {
  // Records attached at an interior node ([svc=cam]) below which OTHER
  // records continue ([svc=cam [room=r]]): a query reaching past the interior
  // attachment triggers Figure 5's union-at-return rule, which plans cannot
  // express — the index must detect it (sub > end with children) and fall
  // back, agreeing with an index-free tree exactly.
  NameTree with_index;
  NameTree without(IndexOff());
  for (uint32_t i = 1; i <= 40; ++i) {
    NameSpecifier n;
    if (i % 4 == 0) {
      n.AddPath({{"svc", "cam"}});  // ends at the interior node
    } else {
      n.AddPath({{"svc", "cam"}, {"room", "r" + std::to_string(i % 5)}});
    }
    NameRecord rec = MakeRecord(i);
    with_index.Upsert(n, rec);
    without.Upsert(n, rec);
  }

  const PostingIndexStats before = with_index.index_stats();
  for (uint32_t r = 0; r < 5; ++r) {
    NameSpecifier q;
    q.AddPath({{"svc", "cam"}, {"room", "r" + std::to_string(r)}});
    const CompiledName ci = CompiledName::ForQuery(q, with_index.symbols());
    const CompiledName co = CompiledName::ForQuery(q, without.symbols());
    const std::vector<const NameRecord*> got = with_index.Lookup(ci);
    EXPECT_EQ(Announcers(got), Announcers(without.Lookup(co))) << q.ToString();
    // The interior attachments themselves are part of the answer (union).
    EXPECT_GE(got.size(), 10u) << q.ToString();
  }
  const PostingIndexStats after = with_index.index_stats();
  EXPECT_EQ(after.fallback_union - before.fallback_union, 5u);
}

// ---------------------------------------------------------------------------
// Plan-cache behavior and scratch retention.
// ---------------------------------------------------------------------------

TEST(PostingIndexPropertyTest, PlanCacheHitsRepeatQueriesAndInvalidatesOnWrites) {
  NameTree tree;
  for (uint32_t i = 1; i <= 100; ++i) {
    NameSpecifier n;
    n.AddPath({{"svc", "s" + std::to_string(i % 4)}, {"unit", "u" + std::to_string(i)}});
    tree.Upsert(n, MakeRecord(i));
  }
  NameSpecifier q;
  q.AddPath({{"svc", "s1"}});
  const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
  NameTree::LookupScratch scratch;

  (void)tree.Lookup(cq, &scratch);
  const PostingIndexStats first = tree.index_stats();
  EXPECT_EQ(first.plan_misses, 1u);
  for (int i = 0; i < 10; ++i) {
    (void)tree.Lookup(cq, &scratch);
  }
  PostingIndexStats stats = tree.index_stats();
  EXPECT_EQ(stats.plan_misses, 1u);  // all repeats hit the cached plan
  EXPECT_EQ(stats.plan_hits, 10u);

  // Any mutation bumps the index version; the cached plan must be re-derived.
  tree.Upsert([&] {
    NameSpecifier n;
    n.AddPath({{"svc", "s1"}, {"unit", "u_new"}});
    return n;
  }(), MakeRecord(999));
  (void)tree.Lookup(cq, &scratch);
  stats = tree.index_stats();
  EXPECT_EQ(stats.plan_misses, 2u);
}

TEST(LookupScratchTest, DegenerateQueryDoesNotPinScratchMemory) {
  // Regression for the pooled-vector high-water-mark leak: one broad query
  // against a large tree used to leave every candidate vector at full
  // capacity in the pool forever (hundreds of MB per long-lived thread on a
  // 10^6-name store). Trim() now caps what survives between lookups.
  NameTree tree;
  for (uint32_t i = 1; i <= 50000; ++i) {
    NameSpecifier n;
    n.AddPath({{"common", "c"}, {"unit", "u" + std::to_string(i)}});
    tree.Upsert(n, MakeRecord(i));
  }

  NameSpecifier q;
  q.AddPath({{"common", "c"}});
  const CompiledName cq = CompiledName::ForQuery(q, tree.symbols());
  NameTree::LookupScratch scratch;

  // Both engines produce the full 50k result; neither may pin it afterwards.
  EXPECT_EQ(tree.LookupTreeWalk(cq, &scratch).size(), 50000u);
  EXPECT_EQ(tree.Lookup(cq, &scratch).size(), 50000u);
  // A wildcard query walks and collects through the pooled vectors too.
  NameSpecifier wild;
  wild.AddPathValue({}, "common", Value::Wildcard());
  EXPECT_EQ(tree.Lookup(CompiledName::ForQuery(wild, tree.symbols()), &scratch).size(),
            50000u);

  // Static budget from the Trim caps: pool + stamped set + index scratch,
  // with generous headroom for the plan cache. Far below the ~MB-per-vector
  // the un-capped pool retained.
  constexpr size_t kBudget =
      NameTree::LookupScratch::kMaxRetainedPoolVectors *
          NameTree::LookupScratch::kMaxRetainedVecEntries * sizeof(void*) +
      NameTree::LookupScratch::kMaxRetainedSetSlots * 16 +
      NameTree::LookupScratch::kMaxRetainedSlotEntries * (sizeof(uint32_t) + sizeof(uint64_t)) +
      (1 << 20);
  EXPECT_LE(scratch.RetainedBytes(), kBudget);
  // And the real point: repeated large lookups reach a steady state instead
  // of ratcheting the high-water mark.
  const size_t steady = scratch.RetainedBytes();
  for (int i = 0; i < 5; ++i) {
    (void)tree.Lookup(cq, &scratch);
  }
  EXPECT_LE(scratch.RetainedBytes(), steady + (64 << 10));
}

}  // namespace
}  // namespace ins
