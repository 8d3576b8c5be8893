#include "replay.h"

#include <utility>
#include <variant>

#include "ins/name/parser.h"
#include "ins/wire/messages.h"
#include "ins/wire/name_decoder.h"

namespace perfbench {

namespace {

using ins::MessageType;

constexpr uint8_t kDataKind = static_cast<uint8_t>(MessageType::kData);

double MeanOf(const std::vector<uint32_t>& v) {
  double sum = 0;
  for (uint32_t x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Mean EncodeMessage cost of each outbound kind a resolver sent.
std::map<uint8_t, std::vector<uint32_t>> EncodeSamples(const SpanRecorder& rec) {
  std::map<uint8_t, std::vector<uint32_t>> out;
  for (size_t kind = 0; kind < SpanRecorder::kKinds; ++kind) {
    for (const ins::Bytes& bytes : rec.outbound[kind]) {
      auto env = ins::DecodeMessage(bytes);
      if (!env.ok()) {
        continue;
      }
      const int64_t t0 = NowNs();
      ins::Bytes encoded = ins::EncodeMessage(*env);
      const int64_t t1 = NowNs();
      if (encoded.size() == bytes.size()) {
        out[static_cast<uint8_t>(kind)].push_back(static_cast<uint32_t>(t1 - t0));
      }
    }
  }
  return out;
}

void ReplayDataPath(const SpanRecorder& rec, const ins::ShardedNameTree& store,
                    std::map<std::string, std::vector<uint32_t>>* lookup_by_plan,
                    ResolverReplay& out) {
  const std::vector<ins::Bytes>& data = rec.inbound[kDataKind];
  const KindStats& live = rec.recv[kDataKind];
  out.data_datagrams = data.size();
  if (data.empty() || live.count == 0) {
    return;
  }
  ins::NameDecoder decoder;
  std::vector<uint32_t> decode, name, lookup;
  uint64_t wildcard_lookups = 0;
  const uint64_t fallbacks_before = store.IndexStatsTotal().TotalFallbacks();
  for (const ins::Bytes& bytes : data) {
    int64_t t0 = NowNs();
    auto env = ins::DecodeMessage(bytes);
    int64_t t1 = NowNs();
    if (!env.ok() || !std::holds_alternative<ins::Packet>(env->body)) {
      continue;
    }
    decode.push_back(static_cast<uint32_t>(t1 - t0));
    const std::string& dst = std::get<ins::Packet>(env->body).destination_name;
    t0 = NowNs();
    auto spec = decoder.Decode(dst);
    t1 = NowNs();
    if (!spec.ok()) {
      continue;
    }
    name.push_back(static_cast<uint32_t>(t1 - t0));
    // The resolver's own lookup call: a scan over the space's shards that
    // hands back matches without copying them. A wildcard puts a query on
    // the tree-walk plan (query_plan.h); the store's fallback counter checks
    // that split below.
    const bool fallback = dst.find('*') != std::string::npos;
    wildcard_lookups += fallback ? 1 : 0;
    t0 = NowNs();
    store.ForEachShardMatch("", **spec, [](size_t, const ins::NameTree&,
                                           const std::vector<const ins::NameRecord*>&) {});
    t1 = NowNs();
    lookup.push_back(static_cast<uint32_t>(t1 - t0));
    if (lookup_by_plan != nullptr) {
      (*lookup_by_plan)[fallback ? "fallback" : "index"].push_back(
          static_cast<uint32_t>(t1 - t0));
    }
  }
  out.plan_split_exact =
      store.IndexStatsTotal().TotalFallbacks() - fallbacks_before == wildcard_lookups;
  out.decode_ns = MeanOf(decode);
  out.name_decode_ns = MeanOf(name);
  out.lookup_ns = MeanOf(lookup);
  const auto encode = EncodeSamples(rec);
  double encode_total = 0;
  for (const auto& [kind, samples] : encode) {
    encode_total += static_cast<double>(rec.sent_while[kDataKind][kind]) * MeanOf(samples);
  }
  out.encode_ns = encode_total / static_cast<double>(live.count);
  const double live_ns = static_cast<double>(live.total_ns) / static_cast<double>(live.count);
  const double send_ns = static_cast<double>(live.child_send_ns) / static_cast<double>(live.count);
  out.unattributed_frac =
      1.0 - (out.decode_ns + out.name_decode_ns + out.lookup_ns + out.encode_ns + send_ns) / live_ns;
}

ins::NameRecord ScratchRecord(const ins::AnnouncerId& announcer, const ins::EndpointInfo& endpoint,
                              double metric, uint64_t version, const ins::NodeAddress& next_hop) {
  ins::NameRecord rec;
  rec.announcer = announcer;
  rec.endpoint = endpoint;
  rec.app_metric = metric;
  rec.route.next_hop_inr = next_hop;
  rec.expires = ins::Seconds(1000000);
  rec.version = version;
  return rec;
}

// Advertisements captured at b and update entries captured at a, replayed as
// Upsert calls on a store holding the stable names.
Dist ReplayWrites(const SpanRecorder& a, const SpanRecorder& b, const std::vector<Record>& stable,
                  bool* from_writes) {
  std::vector<std::pair<ins::NameSpecifier, ins::NameRecord>> writes;
  const ins::NodeAddress via_b = ins::MakeAddress(2);
  for (const ins::Bytes& bytes : b.inbound[static_cast<uint8_t>(MessageType::kAdvertisement)]) {
    auto env = ins::DecodeMessage(bytes);
    if (!env.ok()) {
      continue;
    }
    const auto& ad = std::get<ins::Advertisement>(env->body);
    if (auto spec = ins::ParseNameSpecifier(ad.name_text); spec.ok()) {
      writes.emplace_back(std::move(*spec), ScratchRecord(ad.announcer, ad.endpoint, ad.app_metric,
                                                          ad.version, ins::kInvalidAddress));
    }
  }
  for (const ins::Bytes& bytes : a.inbound[static_cast<uint8_t>(MessageType::kNameUpdate)]) {
    auto env = ins::DecodeMessage(bytes);
    if (!env.ok()) {
      continue;
    }
    for (const ins::NameUpdateEntry& e : std::get<ins::NameUpdate>(env->body).entries) {
      if (auto spec = ins::ParseNameSpecifier(e.name_text); spec.ok()) {
        writes.emplace_back(std::move(*spec),
                            ScratchRecord(e.announcer, e.endpoint, e.app_metric, e.version, via_b));
      }
    }
  }
  // Populating the scratch store replays the set-up advertisements; those
  // grafts are the samples when the window captured no write.
  std::vector<uint32_t> populate, captured;
  ins::ShardedNameTree scratch;
  scratch.AddSpace("");
  for (uint32_t id = 0; id < stable.size(); ++id) {
    const ins::NameRecord rec = ScratchRecord(ins::AnnouncerId{kAnnouncerIp, 1, id},
                                              EndpointFor(id, via_b), stable[id].metric, 1,
                                              ins::kInvalidAddress);
    const int64_t t0 = NowNs();
    scratch.Upsert("", stable[id].spec, rec);
    populate.push_back(static_cast<uint32_t>(NowNs() - t0));
  }
  for (const auto& [spec, rec] : writes) {
    const int64_t t0 = NowNs();
    scratch.Upsert("", spec, rec);
    captured.push_back(static_cast<uint32_t>(NowNs() - t0));
  }
  *from_writes = !captured.empty();
  return Summarize(captured.empty() ? populate : captured);
}

}  // namespace

std::string KindName(uint8_t kind) {
  switch (static_cast<MessageType>(kind)) {
    case MessageType::kData: return "data";
    case MessageType::kAdvertisement: return "advertisement";
    case MessageType::kNameUpdate: return "name_update";
    case MessageType::kEarlyBindingResponse: return "early_binding_response";
    case MessageType::kPing: return "ping";
    case MessageType::kPong: return "pong";
    case MessageType::kPeerKeepalive: return "peer_keepalive";
    case MessageType::kDsrRegister: return "dsr_register";
    case MessageType::kDsrListRequest: return "dsr_list_request";
    case MessageType::kDsrListResponse: return "dsr_list_response";
    case MessageType::kPeerRequest: return "peer_request";
    case MessageType::kPeerAccept: return "peer_accept";
    default: return "type" + std::to_string(kind);
  }
}

ReplayReport Replay(const SpanRecorder& a, const ins::ShardedNameTree& a_store,
                    const SpanRecorder& b, const ins::ShardedNameTree& b_store,
                    const std::vector<Record>& stable) {
  ReplayReport r;
  std::map<std::string, std::vector<uint32_t>> decode, encode, lookup;
  std::vector<uint32_t> parse;
  auto time_parse = [&parse](const std::string& text) {
    const int64_t t0 = NowNs();
    auto spec = ins::ParseNameSpecifier(text);
    const int64_t t1 = NowNs();
    if (spec.ok()) {
      parse.push_back(static_cast<uint32_t>(t1 - t0));
    }
  };
  for (const SpanRecorder* rec : {&a, &b}) {
    for (size_t kind = 0; kind < SpanRecorder::kKinds; ++kind) {
      for (const ins::Bytes& bytes : rec->inbound[kind]) {
        const int64_t t0 = NowNs();
        auto env = ins::DecodeMessage(bytes);
        const int64_t t1 = NowNs();
        if (!env.ok()) {
          continue;
        }
        decode[KindName(static_cast<uint8_t>(kind))].push_back(static_cast<uint32_t>(t1 - t0));
        if (const auto* p = std::get_if<ins::Packet>(&env->body)) {
          time_parse(p->destination_name);
        } else if (const auto* ad = std::get_if<ins::Advertisement>(&env->body)) {
          time_parse(ad->name_text);
        } else if (const auto* up = std::get_if<ins::NameUpdate>(&env->body)) {
          for (const ins::NameUpdateEntry& e : up->entries) {
            time_parse(e.name_text);
          }
        }
      }
    }
    for (auto& [kind, samples] : EncodeSamples(*rec)) {
      auto& pooled = encode[KindName(kind)];
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
  }
  r.parse_ns = Summarize(parse);
  ReplayDataPath(a, a_store, &lookup, r.a);
  ReplayDataPath(b, b_store, nullptr, r.b);
  // Each map also gets "all": every workload has samples there.
  auto summarize = [](std::map<std::string, std::vector<uint32_t>>& by_key,
                      std::map<std::string, Dist>& out) {
    std::vector<uint32_t> all;
    for (auto& [key, samples] : by_key) {
      all.insert(all.end(), samples.begin(), samples.end());
      out[key] = Summarize(samples);
    }
    out["all"] = Summarize(all);
  };
  summarize(decode, r.decode_ns);
  summarize(encode, r.encode_ns);
  summarize(lookup, r.lookup_ns);
  r.upsert_ns = ReplayWrites(a, b, stable, &r.upsert_from_writes);
  return r;
}

}  // namespace perfbench
