// Differential testing of the resolver's lookup structures.
//
// Drives randomized soft-state workloads — add / refresh / change / rename /
// remove / expire / lookup / get-name — through three implementations at
// once and demands identical answers:
//
//   * LinearNameTable  — the Matches()-scan reference model (baseline/);
//   * NameTree         — the paper's superposed tree (Figure 5/6);
//   * ShardedNameTree  — the concurrent sharded core, exercised here in
//                        deterministic inline mode with several fallback
//                        shards so the union-of-shards path is covered.
//
// The three-way equivalence is exact on schema-complete workloads (every
// advertisement uses all r_a attributes per level, i.e. n_a == r_a): that is
// when Figure 5's tree walk coincides with the per-advertisement Matches()
// predicate, and when a hash-sharded union coincides with one tree (see the
// semantics notes in name_tree.h and sharded_name_tree.h). A separate suite
// pins NameTree == ShardedNameTree(fallback_shards=1) on schema-INcomplete
// workloads, where the single-shard layout must be byte-identical by
// construction.
//
// Workload invariants the generator maintains (both by protocol design and
// because the reference model replaces records wholesale): per-announcer
// versions strictly increase and expiry deadlines never move backwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ins/baseline/linear_name_table.h"
#include "ins/baseline/string_name_tree.h"
#include "ins/common/rng.h"
#include "ins/name/compiled_name.h"
#include "ins/name/parser.h"
#include "ins/nametree/journal.h"
#include "ins/nametree/name_tree.h"
#include "ins/nametree/sharded_name_tree.h"
#include "ins/workload/namegen.h"

namespace ins {
namespace {

// Schema-complete: every level uses all three attributes of its pool.
constexpr UniformNameParams kCompleteParams{3, 3, 3, 2};
// Schema-incomplete: names omit one of the three attributes per level.
constexpr UniformNameParams kSparseParams{3, 3, 2, 2};

constexpr size_t kSeeds = 10;
constexpr size_t kOpsPerSeed = 1200;

struct LiveName {
  AnnouncerId id;
  NameSpecifier name;
  uint64_t version = 1;
  TimePoint expires{0};
};

// One generated workload state: the three structures under test plus the
// bookkeeping needed to generate valid next operations.
class Harness {
 public:
  static NameTree::Options IndexOffOptions() {
    NameTree::Options o;
    o.enable_posting_index = false;
    return o;
  }

  Harness(uint64_t seed, UniformNameParams params, size_t fallback_shards)
      : rng_(seed), params_(params), tree_off_(IndexOffOptions()) {
    ShardedNameTree::Options opts;
    opts.fallback_shards = fallback_shards;
    // Small ring on purpose: stretches between replica syncs regularly
    // overflow it, so the snapshot-fallback path runs alongside deltas.
    opts.journal_capacity = 32;
    sharded_ = std::make_unique<ShardedNameTree>(opts);
    sharded_->AddSpace("");
    ShardedNameTree::Options replica_opts;
    replica_opts.fallback_shards = fallback_shards;
    replica_ = std::make_unique<ShardedNameTree>(replica_opts);
    replica_->AddSpace("");
  }

  size_t replica_syncs() const { return replica_syncs_; }

  static std::string Render(const std::vector<const NameRecord*>& recs) {
    std::ostringstream os;
    for (const NameRecord* r : recs) {
      os << r->announcer.ToString() << " v" << r->version << " e" << r->expires.count()
         << " m" << r->app_metric << "\n";
    }
    return os.str();
  }

  static std::string Render(const std::vector<NameRecord>& recs) {
    std::ostringstream os;
    for (const NameRecord& r : recs) {
      os << r.announcer.ToString() << " v" << r.version << " e" << r.expires.count() << " m"
         << r.app_metric << "\n";
    }
    return os.str();
  }

  void RunOps(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t dice = rng_.NextBelow(100);
      if (dice < 30 || live_.empty()) {
        OpAdd();
      } else if (dice < 45) {
        OpRefresh();
      } else if (dice < 55) {
        OpChange();
      } else if (dice < 63) {
        OpRename();
      } else if (dice < 68) {
        OpRemove();
      } else if (dice < 75) {
        OpBatch();
      } else if (dice < 82) {
        OpExpire();
      } else if (dice < 92) {
        OpCompareLookup();
      } else {
        OpReplicateAndCompare();
      }
    }
    OpReplicateAndCompare();
    CompareAll("final");
    ASSERT_TRUE(tree_.CheckInvariants().ok());
    ASSERT_TRUE(tree_off_.CheckInvariants().ok());
    ASSERT_TRUE(sharded_->CheckInvariants().ok());
    ASSERT_TRUE(replica_->CheckInvariants().ok());

    // The workload genuinely drove the index: lookups ran, and literal
    // queries were served (or proven empty) by posting-list intersection —
    // not by silently falling back to the walk on every query.
    const PostingIndexStats stats = tree_.index_stats();
    EXPECT_GT(stats.TotalLookups(), 0u);
    EXPECT_GT(stats.index_lookups + stats.empty_lookups, 0u);
    EXPECT_EQ(tree_off_.posting_index(), nullptr);
    // Scratch capacity pinned between lookups stays under the Trim caps.
    EXPECT_LE(scratch_.RetainedBytes(), size_t{16} << 20);
  }

 private:
  NameRecord MakeRecord(const LiveName& ln) const {
    NameRecord r;
    r.announcer = ln.id;
    r.endpoint.address = NodeAddress{ln.id.ip, 9000};
    r.app_metric = static_cast<double>(ln.version % 7);
    r.expires = ln.expires;
    r.version = ln.version;
    return r;
  }

  void UpsertEverywhere(const LiveName& ln) {
    NameRecord rec = MakeRecord(ln);
    oracle_.Upsert(ln.name, rec);
    tree_.Upsert(ln.name, rec);
    tree_off_.Upsert(ln.name, rec);
    sharded_->Upsert("", ln.name, rec);
  }

  void OpAdd() {
    LiveName ln;
    const uint32_t n = next_announcer_++;
    ln.id = AnnouncerId{0x0a000000u + n, 7, n};
    ln.name = GenerateUniformName(rng_, params_);
    ln.version = 1;
    ln.expires = now_ + Seconds(static_cast<int64_t>(30 + rng_.NextBelow(300)));
    UpsertEverywhere(ln);
    live_.push_back(ln);
  }

  LiveName& PickLive() { return live_[rng_.NextBelow(live_.size())]; }

  void OpRefresh() {
    LiveName& ln = PickLive();
    ln.version += 1;
    ln.expires =
        std::max(ln.expires, now_ + Seconds(static_cast<int64_t>(30 + rng_.NextBelow(300))));
    UpsertEverywhere(ln);
  }

  void OpChange() {
    LiveName& ln = PickLive();
    ln.version += 1 + rng_.NextBelow(3);  // versions may skip, never repeat
    UpsertEverywhere(ln);
  }

  void OpRename() {
    LiveName& ln = PickLive();
    ln.version += 1;
    ln.name = GenerateUniformName(rng_, params_);
    UpsertEverywhere(ln);
  }

  void OpRemove() {
    size_t idx = rng_.NextBelow(live_.size());
    const AnnouncerId id = live_[idx].id;
    const bool a = oracle_.Remove(id);
    const bool b = tree_.Remove(id);
    const bool c = sharded_->Remove("", id);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    ASSERT_EQ(a, tree_off_.Remove(id));
    live_.erase(live_.begin() + static_cast<long>(idx));
  }

  void OpExpire() {
    now_ += Seconds(static_cast<int64_t>(rng_.NextBelow(120)));
    const size_t a = oracle_.ExpireBefore(now_);
    const size_t b = tree_.ExpireBefore(now_);
    const size_t c = sharded_->ExpireBefore(now_);
    ASSERT_EQ(a, b) << "expiry divergence at t=" << now_.count();
    ASSERT_EQ(a, c) << "expiry divergence at t=" << now_.count();
    ASSERT_EQ(a, tree_off_.ExpireBefore(now_)) << "expiry divergence at t=" << now_.count();
    std::erase_if(live_, [this](const LiveName& ln) { return ln.expires < now_; });
  }

  void OpBatch() {
    // One UpsertBatch call against the sharded store vs entry-by-entry
    // application to the oracles — equivalent because announcers within a
    // batch are distinct. Renames inside a batch exercise the cross-shard
    // eviction path under the batched-publish protocol.
    std::vector<size_t> picked;
    const size_t want = 1 + rng_.NextBelow(6);
    for (size_t k = 0; k < want; ++k) {
      const uint64_t kind = rng_.NextBelow(3);
      if (kind == 0 || live_.empty()) {
        LiveName ln;
        const uint32_t n = next_announcer_++;
        ln.id = AnnouncerId{0x0a000000u + n, 7, n};
        ln.name = GenerateUniformName(rng_, params_);
        ln.version = 1;
        ln.expires = now_ + Seconds(static_cast<int64_t>(30 + rng_.NextBelow(300)));
        live_.push_back(ln);
        picked.push_back(live_.size() - 1);
      } else {
        const size_t idx = rng_.NextBelow(live_.size());
        if (std::find(picked.begin(), picked.end(), idx) != picked.end()) {
          continue;  // one entry per announcer per batch
        }
        LiveName& ln = live_[idx];
        ln.version += 1;
        if (kind == 2) {
          ln.name = GenerateUniformName(rng_, params_);  // rename, maybe cross-shard
        }
        picked.push_back(idx);
      }
    }
    std::vector<std::pair<NameSpecifier, NameRecord>> batch;
    for (size_t idx : picked) {
      const LiveName& ln = live_[idx];
      NameRecord rec = MakeRecord(ln);
      oracle_.Upsert(ln.name, rec);
      tree_.Upsert(ln.name, rec);
      tree_off_.Upsert(ln.name, rec);
      batch.emplace_back(ln.name, rec);
    }
    // Every entry is fresh (new announcer or bumped version): none may be
    // dropped by the cross-shard staleness guard.
    ASSERT_EQ(sharded_->UpsertBatch("", batch), batch.size());
  }

  NameSpecifier MakeQuery() {
    // Mix of fresh uniform specifiers (same pools, so they intersect the
    // live set meaningfully) and wildcarded derivations of live names.
    if (!live_.empty() && rng_.NextBool(0.5)) {
      return DeriveQuery(rng_, PickLive().name, 0.8, 0.3);
    }
    return GenerateUniformName(rng_, params_);
  }

  void OpCompareLookup() {
    const NameSpecifier q = MakeQuery();
    const std::string oracle = Render(oracle_.Lookup(q));
    EXPECT_EQ(oracle, Render(tree_.Lookup(q))) << "LOOKUP-NAME diverged on " << q.ToString();
    // The pre-compiled query path (what ShardedNameTree compiles once per
    // store operation) must be byte-identical to the string entry point, with
    // both a caller-provided and the thread-local scratch.
    const CompiledName cq = CompiledName::ForQuery(q, tree_.symbols());
    EXPECT_EQ(oracle, Render(tree_.Lookup(cq, &scratch_)))
        << "compiled LOOKUP-NAME (explicit scratch) diverged on " << q.ToString();
    EXPECT_EQ(oracle, Render(tree_.Lookup(cq)))
        << "compiled LOOKUP-NAME (thread-local scratch) diverged on " << q.ToString();
    // Posting-index three-way: the index path (default Lookup above), the
    // Figure-5 walk on the same tree, and a tree built with the index off
    // must all match the Matches()-scan oracle on every query.
    EXPECT_EQ(oracle, Render(tree_.LookupTreeWalk(cq, &scratch_)))
        << "tree walk diverged from index path on " << q.ToString();
    EXPECT_EQ(oracle,
              Render(tree_off_.Lookup(CompiledName::ForQuery(q, tree_off_.symbols()))))
        << "index-off tree diverged on " << q.ToString();
    EXPECT_EQ(oracle, Render(sharded_->Lookup("", q)))
        << "sharded LOOKUP-NAME diverged on " << q.ToString();
    if (!live_.empty()) {
      // GET-NAME: all three agree on the record's canonical specifier.
      const LiveName& ln = live_[rng_.NextBelow(live_.size())];
      const NameRecord* rec = tree_.Find(ln.id);
      ASSERT_NE(rec, nullptr);
      auto sharded_name = sharded_->GetName("", ln.id);
      ASSERT_TRUE(sharded_name.has_value());
      EXPECT_EQ(ln.name.ToString(), tree_.ExtractName(rec).ToString());
      EXPECT_EQ(ln.name.ToString(), sharded_name->ToString());
    }
  }

  // Replicate-then-compare: catch the replica up from the primary's change
  // journal — an O(changes) delta while its cursor is still on the ring, a
  // full AXFR-style rebuild once it has fallen off — then demand the replica
  // matches the Matches()-scan oracle record-for-record. This is the exact
  // data path the resolver replication protocol serves, minus the wire.
  void OpReplicateAndCompare() {
    const NameJournal* journal = sharded_->journal("");
    ASSERT_NE(journal, nullptr);
    std::vector<JournalEntry> entries;
    if (!journal->ReadSince(replica_serial_, SIZE_MAX, &entries)) {
      replica_->RemoveSpace("");
      replica_->AddSpace("");
      sharded_->ForEachShardTree("", [&](const NameTree& tree) {
        for (const NameRecord* rec : tree.AllRecords()) {
          replica_->Upsert("", tree.ExtractName(rec), *rec);
        }
      });
    } else {
      for (const JournalEntry& e : entries) {
        if (e.op == JournalOp::kUpsert) {
          auto name = ParseNameSpecifier(e.name_text);
          ASSERT_TRUE(name.ok()) << "unparseable journal name: " << e.name_text;
          NameRecord rec;
          rec.announcer = e.announcer;
          rec.endpoint = e.endpoint;
          rec.app_metric = e.app_metric;
          rec.expires = e.expires;
          rec.version = e.version;
          replica_->Upsert("", name.value(), rec);
        } else {
          replica_->Remove("", e.announcer);
        }
      }
    }
    replica_serial_ = journal->head_serial();
    ++replica_syncs_;

    const NameSpecifier match_all;
    EXPECT_EQ(Render(oracle_.Lookup(match_all)), Render(replica_->Lookup("", match_all)))
        << "replica diverged from oracle after sync " << replica_syncs_;
    EXPECT_EQ(oracle_.size(), replica_->RecordCount(""));
  }

  void CompareAll(const std::string& label) {
    const NameSpecifier match_all;  // empty query matches everything
    const std::string oracle = Render(oracle_.Lookup(match_all));
    EXPECT_EQ(oracle, Render(tree_.Lookup(match_all))) << label;
    EXPECT_EQ(oracle, Render(sharded_->Lookup("", match_all))) << label;
    EXPECT_EQ(oracle_.size(), tree_.record_count()) << label;
    EXPECT_EQ(oracle_.size(), sharded_->RecordCount("")) << label;
  }

  Rng rng_;
  UniformNameParams params_;
  TimePoint now_{0};
  uint32_t next_announcer_ = 1;
  std::vector<LiveName> live_;

  LinearNameTable oracle_;
  NameTree tree_;
  // Same workload with Options::enable_posting_index = false: pins that the
  // index-off configuration reproduces the pre-index behavior exactly.
  NameTree tree_off_;
  NameTree::LookupScratch scratch_;  // reused across every compiled lookup
  std::unique_ptr<ShardedNameTree> sharded_;
  // Journal-fed replica of sharded_ (see OpReplicateAndCompare).
  std::unique_ptr<ShardedNameTree> replica_;
  uint64_t replica_serial_ = 0;
  size_t replica_syncs_ = 0;
};

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Three-way equivalence, schema-complete workload, hash-sharded store.
TEST_P(DifferentialTest, OracleVsTreeVsShardedStore) {
  Harness h(GetParam(), kCompleteParams, /*fallback_shards=*/4);
  h.RunOps(kOpsPerSeed);
  EXPECT_GT(h.replica_syncs(), 1u);  // the replication op really ran
}

// Single-shard store must track the tree exactly on ANY workload — including
// schema-incomplete names where advertisements omit attributes.
TEST_P(DifferentialTest, SingleShardIsByteIdenticalOnSparseWorkload) {
  Rng rng(GetParam() * 977 + 3);
  NameTree tree;
  ShardedNameTree::Options opts;
  opts.fallback_shards = 1;
  ShardedNameTree sharded(opts);
  sharded.AddSpace("");

  std::vector<LiveName> live;
  TimePoint now{0};
  for (size_t i = 0; i < kOpsPerSeed; ++i) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 40 || live.empty()) {
      LiveName ln;
      const uint32_t n = static_cast<uint32_t>(i) + 1;
      ln.id = AnnouncerId{0x0b000000u + n, 11, n};
      ln.name = GenerateUniformName(rng, kSparseParams);
      ln.version = 1;
      ln.expires = now + Seconds(static_cast<int64_t>(20 + rng.NextBelow(200)));
      NameRecord rec;
      rec.announcer = ln.id;
      rec.expires = ln.expires;
      rec.version = ln.version;
      tree.Upsert(ln.name, rec);
      sharded.Upsert("", ln.name, rec);
      live.push_back(ln);
    } else if (dice < 60) {
      LiveName& ln = live[rng.NextBelow(live.size())];
      ln.version += 1;
      ln.name = GenerateUniformName(rng, kSparseParams);
      NameRecord rec;
      rec.announcer = ln.id;
      rec.expires = ln.expires;
      rec.version = ln.version;
      tree.Upsert(ln.name, rec);
      sharded.Upsert("", ln.name, rec);
    } else if (dice < 70) {
      now += Seconds(static_cast<int64_t>(rng.NextBelow(80)));
      ASSERT_EQ(tree.ExpireBefore(now), sharded.ExpireBefore(now));
      std::erase_if(live, [now](const LiveName& ln) { return ln.expires < now; });
    } else {
      // Arbitrary (sparse) query: the single shard must agree verbatim.
      NameSpecifier q = GenerateUniformName(rng, kSparseParams);
      std::vector<const NameRecord*> want = tree.Lookup(q);
      std::vector<NameRecord> got = sharded.Lookup("", q);
      ASSERT_EQ(want.size(), got.size()) << q.ToString();
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_TRUE(want[k]->announcer == got[k].announcer);
        EXPECT_EQ(want[k]->version, got[k].version);
      }
    }
  }
  EXPECT_EQ(tree.record_count(), sharded.RecordCount(""));
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(sharded.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

// ---------------------------------------------------------------------------
// Wildcards the posting index serves by count proof (posting_index.h): a
// wildcard conjunct whose attribute every record under its parent carries is
// exactly Sub(parent), so the plan needs no walk. These suites aim wildcard
// queries at the root and below a literal, on trees where the proof holds
// (schema-complete) and where it holds only some of the time (sparse), and
// demand index == Figure-5 walk == index-off tree == single-shard store.
// ---------------------------------------------------------------------------

// The four engines on one query, through one reused scratch (and with it one
// plan cache, whose plans hold posting pointers valid at one index version).
class WildcardEngines {
 public:
  WildcardEngines() : tree_off_(Harness::IndexOffOptions()) {
    ShardedNameTree::Options opts;
    opts.fallback_shards = 1;
    sharded_ = std::make_unique<ShardedNameTree>(opts);
    sharded_->AddSpace("");
  }

  void Upsert(const NameSpecifier& name, uint32_t id, uint64_t version, TimePoint expires) {
    NameRecord rec;
    rec.announcer = AnnouncerId{0x0e000000u + id, 9, id};
    rec.version = version;
    rec.expires = expires;
    oracle_.Upsert(name, rec);
    tree_.Upsert(name, rec);
    tree_off_.Upsert(name, rec);
    sharded_->Upsert("", name, rec);
  }

  void Remove(uint32_t id) {
    const AnnouncerId a{0x0e000000u + id, 9, id};
    const bool removed = tree_.Remove(a);
    ASSERT_EQ(removed, tree_off_.Remove(a));
    ASSERT_EQ(removed, sharded_->Remove("", a));
    ASSERT_EQ(removed, oracle_.Remove(a));
  }

  void Expire(TimePoint now) {
    const size_t n = tree_.ExpireBefore(now);
    ASSERT_EQ(n, tree_off_.ExpireBefore(now));
    ASSERT_EQ(n, sharded_->ExpireBefore(now));
    ASSERT_EQ(n, oracle_.ExpireBefore(now));
  }

  // Compares all engines on `q`; with `vs_oracle` also against Matches()
  // (valid only while the tree is schema-complete).
  void Compare(const NameSpecifier& q, bool vs_oracle) {
    const CompiledName cq = CompiledName::ForQuery(q, tree_.symbols());
    const std::string via_index = Harness::Render(tree_.Lookup(cq, &scratch_));
    EXPECT_EQ(via_index, Harness::Render(tree_.LookupTreeWalk(cq, &scratch_)))
        << "index vs walk on " << q.ToString();
    EXPECT_EQ(via_index, Harness::Render(tree_off_.Lookup(
                             CompiledName::ForQuery(q, tree_off_.symbols()))))
        << "index vs index-off tree on " << q.ToString();
    EXPECT_EQ(via_index, Harness::Render(sharded_->Lookup("", q)))
        << "index vs sharded store on " << q.ToString();
    if (vs_oracle) {
      EXPECT_EQ(via_index, Harness::Render(oracle_.Lookup(q)))
          << "index vs oracle on " << q.ToString();
    }
  }

  const NameTree& tree() const { return tree_; }

 private:
  LinearNameTable oracle_;
  NameTree tree_;
  NameTree tree_off_;
  std::unique_ptr<ShardedNameTree> sharded_;
  NameTree::LookupScratch scratch_;
};

// Wildcard-family queries derived from a live name: a root wildcard on one
// of its attributes, and a wildcard below one of its literals, each alone or
// next to a further literal conjunct of the same name.
std::vector<NameSpecifier> WildcardFamilies(Rng& rng, const NameSpecifier& live) {
  const std::vector<AvPair>& roots = live.roots();
  const AvPair& a = roots[rng.NextBelow(roots.size())];
  const AvPair& other = roots[rng.NextBelow(roots.size())];
  std::vector<NameSpecifier> out;

  NameSpecifier root_wild;
  root_wild.AddPathValue({}, a.attribute, Value::Wildcard());
  out.push_back(root_wild);

  // Both schemas grow children under every root pair (d == 2).
  const AvPair& child = a.children[rng.NextBelow(a.children.size())];
  NameSpecifier below;
  below.AddPathValue({{a.attribute, a.value.literal()}}, child.attribute, Value::Wildcard());
  out.push_back(below);

  if (&other != &a) {
    for (NameSpecifier mixed : {root_wild, below}) {
      mixed.AddPath({{other.attribute, other.value.literal()}});
      out.push_back(mixed);
    }
  }
  return out;
}

class WildcardFamilyTest : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(WildcardFamilyTest, CountProofAgreesWithWalk) {
  const auto [seed, complete] = GetParam();
  const UniformNameParams params = complete ? kCompleteParams : kSparseParams;
  Rng rng(seed * 7717 + (complete ? 1 : 2));
  WildcardEngines e;
  std::vector<LiveName> live;
  TimePoint now{0};
  uint32_t next_id = 1;
  for (size_t i = 0; i < 600; ++i) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 35 || live.empty()) {
      LiveName ln;
      ln.id = AnnouncerId{0, 0, next_id++};
      ln.name = GenerateUniformName(rng, params);
      ln.expires = now + Seconds(static_cast<int64_t>(20 + rng.NextBelow(200)));
      e.Upsert(ln.name, ln.id.discriminator, ln.version, ln.expires);
      live.push_back(ln);
    } else if (dice < 50) {
      LiveName& ln = live[rng.NextBelow(live.size())];
      ln.version += 1;
      ln.name = GenerateUniformName(rng, params);  // rename
      e.Upsert(ln.name, ln.id.discriminator, ln.version, ln.expires);
    } else if (dice < 58) {
      const size_t idx = rng.NextBelow(live.size());
      e.Remove(live[idx].id.discriminator);
      live.erase(live.begin() + static_cast<long>(idx));
    } else if (dice < 65) {
      now += Seconds(static_cast<int64_t>(rng.NextBelow(60)));
      e.Expire(now);
      std::erase_if(live, [now](const LiveName& ln) { return ln.expires < now; });
    } else {
      const LiveName& ln = live[rng.NextBelow(live.size())];
      for (const NameSpecifier& q : WildcardFamilies(rng, ln.name)) {
        e.Compare(q, complete);
      }
    }
  }

  const PostingIndexStats stats = e.tree().index_stats();
  // The count proof really served wildcard queries without a walk...
  EXPECT_GT(stats.universal_lookups + stats.index_lookups, 0u);
  if (complete) {
    // ...every one of them while the tree stays schema-complete...
    EXPECT_EQ(stats.fallback_wildcard, 0u);
  } else {
    // ...and sparse trees still exercised the walk fallback.
    EXPECT_GT(stats.fallback_wildcard, 0u);
  }
  EXPECT_TRUE(e.tree().CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(SeedsAndSchemas, WildcardFamilyTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                                            ::testing::Bool()));

// A scripted sequence that flips the count proof both ways — a record
// lacking the wildcard's attribute arrives, then leaves by remove, rename or
// expiry — while one scratch (one plan cache) serves every lookup. Postings
// the flipping records alone hold are erased and re-created in between, so a
// plan served past its index version would read freed postings (ASan).
TEST(CountProofFlipTest, PlansNeverOutliveTheirIndexVersion) {
  WildcardEngines e;
  const TimePoint forever = Seconds(1 << 30);
  auto parse = [](const std::string& text) {
    auto r = ParseNameSpecifier(text);
    EXPECT_TRUE(r.ok()) << text;
    return r.ok() ? *r : NameSpecifier{};
  };
  for (uint32_t i = 1; i <= 30; ++i) {
    e.Upsert(parse("[a0_0=v" + std::to_string(i % 3) + "[a1_0=v" + std::to_string(i % 2) +
                   "][a1_1=v" + std::to_string(i % 5) + "]][a0_1=v" + std::to_string(i % 4) +
                   "]"),
             i, 1, forever);
  }
  const std::vector<NameSpecifier> queries = {
      parse("[a0_0=*]"),                    // root wildcard
      parse("[a0_0=*][a0_1=v1]"),           // root wildcard next to a literal
      parse("[a0_0=v1[a1_1=*]]"),           // wildcard below a literal
      parse("[a0_0=v1[a1_1=*]][a0_1=v2]"),  // ... next to a literal
      parse("[a0_0=v9[a1_1=*]]"),           // below a value only the flips carry
      parse("[a0_0=v9[a1_1=*]][a0_1=v3]"),
  };
  auto compare_all = [&](const char* step) {
    SCOPED_TRACE(step);
    for (int round = 0; round < 2; ++round) {  // second round: plan-cache hits
      for (const NameSpecifier& q : queries) {
        e.Compare(q, /*vs_oracle=*/false);
      }
    }
  };
  auto fallbacks = [&] { return e.tree().index_stats().fallback_wildcard; };

  compare_all("complete");
  uint64_t f = fallbacks();
  EXPECT_EQ(f, 0u);

  // Root proof fails: a record without a0_0.
  e.Upsert(parse("[a0_1=v1]"), 100, 1, forever);
  compare_all("root proof broken");
  EXPECT_GT(fallbacks(), f);
  e.Remove(100);
  f = fallbacks();
  compare_all("root proof restored by remove");
  EXPECT_EQ(fallbacks(), f);

  // Below-literal proof fails under a0_0=v1 (and creates a0_0=v9 postings
  // via a second record), then recovers by rename.
  e.Upsert(parse("[a0_0=v1[a1_0=v0]][a0_1=v2]"), 101, 1, forever);
  e.Upsert(parse("[a0_0=v9[a1_1=v0]][a0_1=v3]"), 102, 1, forever);
  f = fallbacks();
  compare_all("below-literal proof broken");
  EXPECT_GT(fallbacks(), f);
  e.Upsert(parse("[a0_0=v1[a1_0=v0][a1_1=v4]][a0_1=v2]"), 101, 2, forever);
  f = fallbacks();
  compare_all("below-literal proof restored by rename");
  EXPECT_EQ(fallbacks(), f);

  // The a0_0=v9 branch flips: a sibling without a1_1 arrives, then expires;
  // then the branch's last record is removed, erasing its postings.
  e.Upsert(parse("[a0_0=v9[a1_0=v1]][a0_1=v3]"), 103, 1, Seconds(50));
  f = fallbacks();
  compare_all("v9 proof broken");
  EXPECT_GT(fallbacks(), f);
  e.Expire(Seconds(60));
  f = fallbacks();
  compare_all("v9 proof restored by expiry");
  EXPECT_EQ(fallbacks(), f);
  e.Remove(102);
  compare_all("v9 postings erased");
  e.Upsert(parse("[a0_0=v9[a1_1=v2]][a0_1=v3]"), 104, 1, forever);
  compare_all("v9 postings re-created");
  EXPECT_EQ(fallbacks(), f);
  EXPECT_TRUE(e.tree().CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Interned core vs the pre-interning string-keyed layout (baseline/
// string_name_tree.h, the ablation baseline): insert-only workloads across
// both schema shapes, identical results on every query. This pins the
// SymbolTable / CompiledName / flat-map rewrite to the old layout's
// observable behavior, independent of the Matches() oracle.
// ---------------------------------------------------------------------------

class InternedVsStringKeyedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InternedVsStringKeyedTest, IdenticalLookupResults) {
  for (const UniformNameParams& params : {kCompleteParams, kSparseParams}) {
    Rng rng(GetParam() * 7919 + 17);
    NameTree interned;
    StringNameTree stringly;
    for (uint32_t i = 1; i <= 400; ++i) {
      NameSpecifier name = GenerateUniformName(rng, params);
      NameRecord rec;
      rec.announcer = AnnouncerId{0x0f000000u + i, 13, i};
      rec.expires = Seconds(3600);
      rec.version = 1;
      interned.Upsert(name, rec);
      stringly.Insert(name, rec);
    }
    NameTree::LookupScratch scratch;
    for (int q = 0; q < 300; ++q) {
      NameSpecifier query = GenerateUniformName(rng, params);
      std::vector<const NameRecord*> a =
          interned.Lookup(CompiledName::ForQuery(query, interned.symbols()), &scratch);
      std::vector<const NameRecord*> b = stringly.Lookup(query);
      ASSERT_EQ(a.size(), b.size()) << query.ToString();
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_TRUE(a[k]->announcer == b[k]->announcer) << query.ToString();
      }
    }
    EXPECT_TRUE(interned.CheckInvariants().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternedVsStringKeyedTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// A CompiledName built against a shared symbol table grafts identically into
// every tree attached to that table — the property ShardedNameTree relies on
// to compile once and apply to any shard and both left-right sides.
TEST(SharedSymbolTableTest, CompileOncePortableAcrossTrees) {
  auto symbols = std::make_shared<SymbolTable>();
  NameTree::Options opts;
  opts.symbols = symbols;
  NameTree left(opts);
  NameTree right(opts);
  ASSERT_EQ(&left.symbols(), symbols.get());
  ASSERT_EQ(&right.symbols(), symbols.get());

  Rng rng(99);
  for (uint32_t i = 1; i <= 200; ++i) {
    NameSpecifier name = GenerateUniformName(rng, kSparseParams);
    const CompiledName compiled = CompiledName::ForUpdate(name, symbols.get());
    NameRecord rec;
    rec.announcer = AnnouncerId{0x10000000u + i, 3, i};
    rec.expires = Seconds(3600);
    rec.version = 1;
    left.Upsert(name, compiled, rec);
    right.Upsert(name, compiled, rec);
  }
  for (int q = 0; q < 200; ++q) {
    NameSpecifier query = GenerateUniformName(rng, kSparseParams);
    const CompiledName cq = CompiledName::ForQuery(query, *symbols);
    std::vector<const NameRecord*> a = left.Lookup(cq);
    std::vector<const NameRecord*> b = right.Lookup(cq);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_TRUE(a[k]->announcer == b[k]->announcer);
    }
  }
  // One table, no per-tree copies: both trees report zero owned symbol bytes.
  EXPECT_EQ(left.ComputeStats().symbol_bytes, 0u);
  EXPECT_EQ(right.ComputeStats().symbol_bytes, 0u);
  EXPECT_TRUE(left.CheckInvariants().ok());
  EXPECT_TRUE(right.CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Sharded-union semantics: with advertisements partitioned into "families"
// that are schema-complete within their shard (every family roots at its own
// single distinctive attribute, with a fixed child schema), the union of
// per-shard LOOKUP-NAMEs equals the Matches() reference model EXACTLY — for
// arbitrary queries, including ones mixing attributes of several families.
// This is the semantic contract the concurrent store scales out under.
// ---------------------------------------------------------------------------

// Picks `want` family attribute names that land in pairwise-distinct
// fallback shards of `shards` (the store hashes the first root attribute
// with std::hash, which we replicate here).
std::vector<std::string> DistinctShardFamilies(size_t want, size_t shards) {
  std::vector<std::string> out;
  std::vector<bool> used(shards, false);
  for (char c = 'a'; c <= 'z' && out.size() < want; ++c) {
    std::string attr = std::string("fam_") + c;
    size_t idx = std::hash<std::string>{}(attr) % shards;
    if (!used[idx]) {
      used[idx] = true;
      out.push_back(attr);
    }
  }
  return out;
}

TEST(ShardedFamilyDifferentialTest, UnionOfShardsEqualsMatchesOracle) {
  constexpr size_t kShards = 8;
  const std::vector<std::string> families = DistinctShardFamilies(4, kShards);
  ASSERT_EQ(families.size(), 4u);

  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 1337);
    ShardedNameTree::Options opts;
    opts.fallback_shards = kShards;
    ShardedNameTree store(opts);
    store.AddSpace("");
    LinearNameTable oracle;

    auto family_value = [&rng] { return "v" + std::to_string(rng.NextBelow(4)); };
    auto family_name = [&](const std::string& fam) {
      // [fam_x=v? [kind=v? [room=v?]]] — one root per family, fixed child
      // schema: schema-complete within the family's shard.
      NameSpecifier n;
      n.AddPath({{fam, family_value()}, {"kind", family_value()}, {"room", family_value()}});
      return n;
    };

    for (uint32_t i = 1; i <= 120; ++i) {
      const std::string& fam = families[rng.NextBelow(families.size())];
      NameRecord rec;
      rec.announcer = AnnouncerId{0x0d000000u + i, seed, i};
      rec.expires = Seconds(3600);
      rec.version = 1;
      NameSpecifier name = family_name(fam);
      oracle.Upsert(name, rec);
      store.Upsert("", name, rec);
    }

    // The workload genuinely spreads: several shards hold records.
    size_t populated = 0;
    for (const ShardedNameTree::ShardStats& st : store.PerShardStats()) {
      populated += st.records > 0 ? 1 : 0;
    }
    EXPECT_GE(populated, 3u);

    for (int q = 0; q < 200; ++q) {
      // Queries constrain 1–2 random families, sometimes with wildcards,
      // sometimes with child constraints — and sometimes mix families, the
      // case where a monolithic Figure-5 tree and the prose semantics
      // disagree but the sharded union must still track the oracle.
      NameSpecifier query;
      const size_t constraints = 1 + rng.NextBelow(2);
      const size_t first = rng.NextBelow(families.size());
      const size_t second = (first + 1 + rng.NextBelow(families.size() - 1)) % families.size();
      for (size_t k = 0; k < constraints; ++k) {
        const std::string& fam = families[k == 0 ? first : second];
        if (rng.NextBool(0.3)) {
          query.AddPathValue({}, fam, Value::Wildcard());
        } else if (rng.NextBool(0.5)) {
          query.AddPath({{fam, family_value()}, {"kind", family_value()}});
        } else {
          query.AddPath({{fam, family_value()}});
        }
      }
      std::vector<const NameRecord*> want = oracle.Lookup(query);
      std::vector<NameRecord> got = store.Lookup("", query);
      ASSERT_EQ(want.size(), got.size()) << "query " << query.ToString();
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_TRUE(want[k]->announcer == got[k].announcer) << query.ToString();
      }
    }
    EXPECT_TRUE(store.CheckInvariants().ok());
  }
}

// Cross-shard service mobility: a rename whose first attribute changes moves
// the record between fallback shards; the store must report kRenamed and
// never hold the announcer twice.
TEST(ShardedMobilityTest, RenameAcrossFallbackShards) {
  constexpr size_t kShards = 8;
  ShardedNameTree::Options opts;
  opts.fallback_shards = kShards;
  ShardedNameTree store(opts);
  store.AddSpace("");

  auto name_with_root = [](const std::string& attr) {
    NameSpecifier n;
    n.AddPath({{attr, "on"}});
    return n;
  };
  auto shard_of = [&](const std::string& attr) {
    return std::hash<std::string>{}(attr) % kShards;
  };

  Rng rng(42);
  size_t cross_shard_renames = 0;
  for (uint32_t n = 1; n <= 64; ++n) {
    AnnouncerId id{0x0c000000u + n, 5, n};
    NameRecord rec;
    rec.announcer = id;
    rec.expires = Seconds(3600);
    rec.version = 1;
    std::string attr = "svc_" + std::to_string(rng.NextBelow(40));
    ASSERT_EQ(store.Upsert("", name_with_root(attr), rec).kind,
              NameTree::UpsertOutcome::kNew);

    for (int attempt = 0; attempt < 20; ++attempt) {
      std::string renamed_attr = "svc_" + std::to_string(rng.NextBelow(40));
      rec.version += 1;
      auto out = store.Upsert("", name_with_root(renamed_attr), rec);
      ASSERT_NE(out.kind, NameTree::UpsertOutcome::kIgnored);
      ASSERT_EQ(store.RecordCount(""), n) << "announcer duplicated or lost across shards";
      if (shard_of(renamed_attr) != shard_of(attr)) {
        EXPECT_EQ(out.kind, NameTree::UpsertOutcome::kRenamed);
        ++cross_shard_renames;
      }
      attr = renamed_attr;
    }
    // Stale versions must lose even against a record in another shard.
    NameRecord stale = rec;
    stale.version = 0;
    EXPECT_EQ(store.Upsert("", name_with_root("svc_0"), stale).kind,
              NameTree::UpsertOutcome::kIgnored);
    ASSERT_EQ(store.RecordCount(""), n);
  }
  EXPECT_GT(cross_shard_renames, 100u);  // the loop really exercised the path
  EXPECT_TRUE(store.CheckInvariants().ok());
}

// Regression: a batch entry STALER than the announcer's record in a
// different fallback shard must be dropped entirely. Routing it to its
// target shard would graft the announcer twice — the target tree's version
// guard cannot see the other shard's record — leaving a duplicate that
// corrupts Remove/Find/RecordCount.
TEST(ShardedMobilityTest, BatchStaleCrossShardEntryIsIgnored) {
  constexpr size_t kShards = 8;
  ShardedNameTree::Options opts;
  opts.fallback_shards = kShards;
  ShardedNameTree store(opts);
  store.AddSpace("");

  auto name_with_root = [](const std::string& attr) {
    NameSpecifier n;
    n.AddPath({{attr, "on"}});
    return n;
  };
  auto shard_of = [&](const std::string& attr) {
    return std::hash<std::string>{}(attr) % kShards;
  };
  // Two root attributes landing in distinct fallback shards.
  const std::string here = "svc_0";
  std::string there;
  for (int i = 1; there.empty(); ++i) {
    std::string cand = "svc_" + std::to_string(i);
    if (shard_of(cand) != shard_of(here)) {
      there = cand;
    }
  }

  AnnouncerId id{0x0e000000u, 5, 1};
  NameRecord rec;
  rec.announcer = id;
  rec.expires = Seconds(3600);
  rec.version = 2;
  ASSERT_EQ(store.Upsert("", name_with_root(here), rec).kind,
            NameTree::UpsertOutcome::kNew);

  NameRecord stale = rec;
  stale.version = 1;
  EXPECT_EQ(store.UpsertBatch("", {{name_with_root(there), stale}}), 0u);
  EXPECT_EQ(store.RecordCount(""), 1u);
  std::optional<NameRecord> found = store.Find("", id);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->version, 2u);
  auto name = store.GetName("", id);
  ASSERT_TRUE(name.has_value());
  EXPECT_TRUE(*name == name_with_root(here));
  EXPECT_TRUE(store.CheckInvariants().ok());

  // A fresh batch entry still migrates the announcer across shards.
  NameRecord fresh = rec;
  fresh.version = 3;
  EXPECT_EQ(store.UpsertBatch("", {{name_with_root(there), fresh}}), 1u);
  EXPECT_EQ(store.RecordCount(""), 1u);
  found = store.Find("", id);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->version, 3u);
  auto moved = store.GetName("", id);
  ASSERT_TRUE(moved.has_value());
  EXPECT_TRUE(*moved == name_with_root(there));
  EXPECT_TRUE(store.CheckInvariants().ok());
}

}  // namespace
}  // namespace ins
