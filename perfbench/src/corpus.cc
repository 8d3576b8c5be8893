#include "corpus.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

#include "ins/baseline/linear_name_table.h"
#include "ins/common/rng.h"
#include "ins/name/parser.h"
#include "ins/workload/namegen.h"

namespace perfbench {

namespace {

// Query draws per workload, about one 10 s window at saturation; a run that
// issues more ops cycles through them again.
constexpr size_t kDraws = 1 << 21;
constexpr size_t kResolveQueries = 10000;
constexpr size_t kResolveMaxMatches = 64;
// Discovery probe of the read-only workloads: this many fresh names, one per
// spacing.
constexpr size_t kProbeNames = 3000;
constexpr int64_t kProbeSpacingNs = 500000;

// churn: fresh advertisements and metric changes alternate, each at this rate.
constexpr double kChurnWritesPerKind = 2000;

const WorkloadSpec kWorkloads[] = {
    {"anycast", 10000, false, false, 3.0},
    {"resolve", 100000, true, false, 4.5},
    {"churn", 10000, false, true, 12.5},
};

class Hasher {
 public:
  void Add(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) { Add(s.data(), s.size() + 1); }
  template <typename T>
  void AddValue(T v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

ins::NameSpecifier Parse(const std::string& text) {
  auto r = ins::ParseNameSpecifier(text);
  if (!r.ok()) {
    throw std::runtime_error("generated name does not parse: " + text);
  }
  return std::move(r).value();
}

std::string TopLiteral(const ins::NameSpecifier& n, const std::string& attribute) {
  for (const ins::AvPair& p : n.roots()) {
    if (p.attribute == attribute && p.value.is_literal()) {
      return p.value.literal();
    }
  }
  return "";
}

// A GenerateSizedName name; with `floor`, its room also gets a [floor=...]
// child, one of ten.
Record MakeRecord(ins::Rng& rng, bool floor = false) {
  Record r;
  r.spec = ins::GenerateSizedName(rng);
  if (floor) {
    std::string floor_value = "f";
    floor_value += std::to_string(rng.NextBelow(10));
    r.spec.AddPath({{"room", TopLiteral(r.spec, "room")}, {"floor", floor_value}});
  }
  r.text = r.spec.ToString();
  return r;
}

std::string FloorOf(const ins::NameSpecifier& n) {
  for (const ins::AvPair& p : n.roots()) {
    if (p.attribute == "room" && !p.children.empty() && p.children[0].value.is_literal()) {
      return p.children[0].value.literal();
    }
  }
  return "";
}

// The anycast destination a name falls under: its service and room.
std::string GroupOf(const ins::NameSpecifier& n) {
  return "[room=" + TopLiteral(n, "room") + "][service=" + TopLiteral(n, "service") + "]";
}

ins::NameRecord OracleRecord(uint32_t id, double metric) {
  ins::NameRecord rec;
  rec.announcer = ins::AnnouncerId{kAnnouncerIp, 1, id};
  rec.app_metric = metric;
  return rec;
}

std::vector<uint32_t> IdsOf(const std::vector<const ins::NameRecord*>& recs) {
  std::vector<uint32_t> ids;
  ids.reserve(recs.size());
  for (const ins::NameRecord* r : recs) {
    ids.push_back(r->announcer.discriminator);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Stable names with distinct metrics 1..n in seeded order.
std::vector<Record> MakeRecords(ins::Rng& rng, size_t n, bool floor) {
  std::vector<Record> records;
  std::set<std::string> seen;
  while (records.size() < n) {
    Record r = MakeRecord(rng, floor);
    if (seen.insert(r.text).second) {
      records.push_back(std::move(r));
    }
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 1u);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < n; ++i) {
    records[i].metric = perm[i];
  }
  return records;
}

// Zipf(1) over the queries, in a seeded rank order.
std::vector<uint32_t> ZipfDraws(ins::Rng& rng, size_t queries) {
  std::vector<uint32_t> rank(queries);
  std::iota(rank.begin(), rank.end(), 0u);
  for (size_t i = queries; i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.NextBelow(i)]);
  }
  std::vector<double> cdf(queries);
  double sum = 0;
  for (size_t i = 0; i < queries; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  std::vector<uint32_t> draws(kDraws);
  for (uint32_t& d : draws) {
    const double u = rng.NextDouble() * sum;
    const size_t i = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    d = rank[std::min(i, queries - 1)];
  }
  return draws;
}

// The two sinks of query `q`: its winner's, then its other matches'. The
// pairs differ between neighbouring queries and cover all 240 ordered pairs.
std::pair<uint32_t, uint32_t> SinksOf(size_t q) {
  const auto first = static_cast<uint32_t>(q % kSinks);
  const auto second = static_cast<uint32_t>((first + 1 + (q / kSinks) % (kSinks - 1)) % kSinks);
  return {first, second};
}

// anycast and churn: one query per (service, room) present; the least-metric
// match gets the query's first sink and every other match its second.
void BuildAnycast(ins::Rng& rng, Corpus& c) {
  std::map<std::string, ins::LinearNameTable> by_service;
  std::set<std::string> groups;
  for (uint32_t id = 0; id < c.records.size(); ++id) {
    const Record& r = c.records[id];
    by_service[TopLiteral(r.spec, "service")].Upsert(r.spec, OracleRecord(id, r.metric));
    groups.insert(GroupOf(r.spec));
  }
  for (const std::string& g : groups) {
    Query q;
    q.spec = Parse(g);
    q.text = q.spec.ToString();
    const auto matches =
        by_service.at(TopLiteral(q.spec, "service")).Lookup(q.spec);
    if (matches.empty()) {
      throw std::runtime_error("oracle found no match for " + q.text);
    }
    const ins::NameRecord* best = *std::min_element(
        matches.begin(), matches.end(),
        [](const ins::NameRecord* a, const ins::NameRecord* b) { return a->app_metric < b->app_metric; });
    const auto [first, second] = SinksOf(c.queries.size());
    q.expected_sink = first;
    for (const ins::NameRecord* m : matches) {
      uint32_t& sink = c.records[m->announcer.discriminator].sink;
      sink = m == best ? first : second;
      q.sink_mask |= 1u << sink;
    }
    q.matches = IdsOf(matches);
    c.queries.push_back(std::move(q));
  }
  c.draws = ZipfDraws(rng, c.queries.size());
}

// resolve: queries derived from advertised names, half literal-only (posting
// index plan), half with a wildcard (tree-walk plan), each matching 1..64.
// Every name carries the attributes the queries use, the regime in which
// the name-tree and the reference matcher agree (DESIGN.md, section 5).
// The wildcard sits below a room literal, so a walk unions one room's
// records instead of the whole store.
void BuildResolve(ins::Rng& rng, Corpus& c) {
  std::map<std::string, ins::LinearNameTable> by_x0;
  for (uint32_t id = 0; id < c.records.size(); ++id) {
    const Record& r = c.records[id];
    by_x0[TopLiteral(r.spec, "x0")].Upsert(r.spec, OracleRecord(id, r.metric));
  }
  std::set<std::string> seen;
  size_t attempt = 0;
  while (c.queries.size() < kResolveQueries) {
    const Record& r = c.records[rng.NextBelow(c.records.size())];
    const std::string s = TopLiteral(r.spec, "service");
    const std::string room = TopLiteral(r.spec, "room");
    const std::string floor = FloorOf(r.spec);
    const std::string x0 = TopLiteral(r.spec, "x0");
    const std::string x1 = TopLiteral(r.spec, "x1");
    const std::string x2 = TopLiteral(r.spec, "x2");
    std::string text;
    switch (attempt++ % 6) {
      case 0: text = "[service=" + s + "][x0=" + x0 + "]"; break;
      case 1: text = "[room=" + room + "[floor=" + floor + "]][x0=" + x0 + "]"; break;
      case 2: text = "[x0=" + x0 + "][x1=" + x1 + "]"; break;
      case 3: text = "[room=" + room + "[floor=*]][x0=" + x0 + "]"; break;
      case 4: text = "[room=" + room + "[floor=*]][x0=" + x0 + "][x1=" + x1 + "]"; break;
      default: text = "[room=" + room + "[floor=*]][x0=" + x0 + "][x2=" + x2 + "]"; break;
    }
    Query q;
    q.spec = Parse(text);
    q.text = q.spec.ToString();
    if (!seen.insert(q.text).second) {
      continue;
    }
    q.matches = IdsOf(by_x0.at(x0).Lookup(q.spec));
    if (q.matches.empty() || q.matches.size() > kResolveMaxMatches) {
      continue;
    }
    c.queries.push_back(std::move(q));
  }
  c.draws.resize(kDraws);
  for (uint32_t& d : c.draws) {
    d = static_cast<uint32_t>(rng.NextBelow(c.queries.size()));
  }
}

// Fresh names for writes. One that falls under a read query can win that
// query's anycast in churn, so it takes one of the query's two sinks, which
// the query's mask then holds. Only the text of a fresh name is kept.
void AddFresh(ins::Rng& rng, Corpus& c, size_t count) {
  std::map<std::string, size_t> query_of;
  for (size_t i = 0; i < c.queries.size(); ++i) {
    query_of[c.queries[i].text] = i;
  }
  for (size_t i = 0; i < count; ++i) {
    Record r = MakeRecord(rng);
    r.metric = 0.5 + rng.NextDouble() * static_cast<double>(c.records.size());
    r.sink = static_cast<uint32_t>(i % kSinks);
    auto it = query_of.find(Parse(GroupOf(r.spec)).ToString());
    if (it != query_of.end()) {
      const auto [first, second] = SinksOf(it->second);
      r.sink = i % 2 == 0 ? first : second;
      c.queries[it->second].sink_mask |= 1u << r.sink;
    }
    r.spec = ins::NameSpecifier();
    c.fresh.push_back(std::move(r));
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

Corpus BuildCorpus(const WorkloadSpec& spec, uint64_t seed, double write_seconds) {
  Hasher name_hash;
  name_hash.Add(spec.name);
  ins::Rng rng(seed * 0x9e3779b97f4a7c15ull + name_hash.value());
  Corpus c;
  c.records = MakeRecords(rng, spec.names, spec.early_binding);
  if (spec.early_binding) {
    BuildResolve(rng, c);
  } else {
    BuildAnycast(rng, c);
  }
  if (spec.churn) {
    // Alternate fresh advertisements and metric changes at the combined rate.
    const double rate = 2 * kChurnWritesPerKind;
    const size_t total = static_cast<size_t>(std::ceil(rate * write_seconds));
    AddFresh(rng, c, total / 2 + 1);
    for (size_t k = 0; k < total; ++k) {
      Write w;
      w.due_ns = static_cast<int64_t>(static_cast<double>(k) * 1e9 / rate);
      w.fresh = k % 2 == 0;
      if (w.fresh) {
        w.index = static_cast<uint32_t>(k / 2);
        w.metric = c.fresh[w.index].metric;
      } else {
        w.index = static_cast<uint32_t>(rng.NextBelow(c.records.size()));
        w.metric = 1 + rng.NextDouble() * static_cast<double>(c.records.size());
      }
      c.writes.push_back(w);
    }
  } else {
    AddFresh(rng, c, kProbeNames);
    for (uint32_t i = 0; i < kProbeNames; ++i) {
      c.writes.push_back({static_cast<int64_t>(i) * kProbeSpacingNs, true, i, c.fresh[i].metric});
    }
  }

  Hasher h;
  for (const Record& r : c.records) {
    h.Add(r.text);
    h.AddValue(r.metric);
    h.AddValue(r.sink);
  }
  for (const Query& q : c.queries) {
    h.Add(q.text);
  }
  h.Add(c.draws.data(), c.draws.size() * sizeof(uint32_t));
  for (const Record& r : c.fresh) {
    h.Add(r.text);
    h.AddValue(r.metric);
  }
  for (const Write& w : c.writes) {
    h.AddValue(w.due_ns);
    h.AddValue(w.fresh);
    h.AddValue(w.index);
    h.AddValue(w.metric);
  }
  c.hash = h.value();
  return c;
}

ins::EndpointInfo EndpointFor(uint32_t id, const ins::NodeAddress& sink) {
  ins::EndpointInfo e;
  e.address = sink;
  e.bindings.push_back({static_cast<uint16_t>(1 + id % 60000), "udp/" + std::to_string(id / 60000)});
  return e;
}

uint32_t RecordIdOf(const ins::EndpointInfo& endpoint) {
  if (endpoint.bindings.size() != 1 || endpoint.bindings[0].port == 0 ||
      endpoint.bindings[0].transport.rfind("udp/", 0) != 0) {
    return UINT32_MAX;
  }
  const std::string& t = endpoint.bindings[0].transport;
  uint32_t high = 0;
  const auto [end, err] = std::from_chars(t.data() + 4, t.data() + t.size(), high);
  if (err != std::errc() || end != t.data() + t.size() || high > 100) {
    return UINT32_MAX;
  }
  return high * 60000 + endpoint.bindings[0].port - 1;
}

}  // namespace perfbench
