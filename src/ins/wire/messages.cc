#include "ins/wire/messages.h"

#include <array>
#include <bit>
#include <concepts>
#include <type_traits>
#include <utility>

namespace ins {

namespace {

// --- The codec ---------------------------------------------------------------
//
// Every message and every sub-encoding states its layout once, as a field
// list: `Fields(ar, m)` calls `ar(m.a, m.b, ...)` in wire order. Two archives
// walk the lists: Writer appends to a ByteWriter; Reader fills from a
// ByteReader and stops at the first error. A field's wire kind follows from
// its C++ type:
//   uint8/16/32/64_t   big-endian at their width
//   bool               u8 (any non-zero reads as true)
//   double, int64_t    the 64-bit pattern as a u64
//   std::string        u16 length + bytes
//   std::vector<T>     u16 count + the elements (U8List: u8 count)
//   Packet             u32 length + the Figure-10 layout (packet.cc)
//   anything else      its own field list

// A list whose count travels as a u8 instead of a u16.
template <class V>
struct U8List {
  V& items;
};
template <class V>
U8List(V&) -> U8List<V>;

// Matches T and const T, so one field list serves both archives.
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

class Writer {
 public:
  explicit Writer(ByteWriter& w) : w_(w) {}

  template <class... Fs>
  void operator()(const Fs&... fs) {
    (Write(fs), ...);
  }
  // Cross-field rules constrain decoding only.
  void Check(bool, const char*) {}

 private:
  void Write(uint8_t v) { w_.WriteU8(v); }
  void Write(uint16_t v) { w_.WriteU16(v); }
  void Write(uint32_t v) { w_.WriteU32(v); }
  void Write(uint64_t v) { w_.WriteU64(v); }
  void Write(bool v) { w_.WriteU8(v ? 1 : 0); }
  void Write(int64_t v) { w_.WriteU64(static_cast<uint64_t>(v)); }
  void Write(double v) { w_.WriteU64(std::bit_cast<uint64_t>(v)); }
  void Write(const std::string& s) { w_.WriteString(s); }
  void Write(const Packet& p) {
    w_.WriteU32(static_cast<uint32_t>(p.EncodedSize()));
    EncodePacket(p, w_);
  }
  template <class T>
  void Write(const std::vector<T>& v) {
    WriteList<uint16_t>(v);
  }
  template <class V>
  void Write(const U8List<V>& list) {
    WriteList<uint8_t>(list.items);
  }
  template <class T>
  void Write(const T& record) {
    Fields(*this, record);
  }

  template <class Count, class V>
  void WriteList(const V& items) {
    Write(static_cast<Count>(items.size()));
    for (const auto& item : items) {
      Write(item);
    }
  }

  ByteWriter& w_;
};

// The fewest bytes one T encodes to: the encoding of T{}, whose strings and
// lists are all empty.
template <class T>
size_t MinEncodedSize() {
  static const size_t size = [] {
    ByteWriter w;
    Writer{w}(T{});
    return w.size();
  }();
  return size;
}

class Reader {
 public:
  explicit Reader(ByteReader& r) : r_(r) {}

  template <class... Fs>
  void operator()(Fs&&... fs) {
    (Read(fs), ...);
  }
  // A cross-field rule the field types cannot express.
  void Check(bool holds, const char* what) {
    if (status_.ok() && !holds) {
      status_ = InvalidArgumentError(what);
    }
  }
  const Status& status() const { return status_; }

 private:
  // Stores read()'s value in `out`, or its error in status_. Once a read has
  // failed, later reads are skipped.
  template <class T, class ReadFn>
  void Take(T& out, ReadFn read) {
    if (!status_.ok()) {
      return;
    }
    auto result = read();
    if (result.ok()) {
      out = std::move(*result);
    } else {
      status_ = result.status();
    }
  }

  void Read(uint8_t& v) {
    Take(v, [&] { return r_.ReadU8(); });
  }
  void Read(uint16_t& v) {
    Take(v, [&] { return r_.ReadU16(); });
  }
  void Read(uint32_t& v) {
    Take(v, [&] { return r_.ReadU32(); });
  }
  void Read(uint64_t& v) {
    Take(v, [&] { return r_.ReadU64(); });
  }
  void Read(bool& v) {
    uint8_t raw = 0;
    Read(raw);
    v = raw != 0;
  }
  void Read(int64_t& v) {
    uint64_t raw = 0;
    Read(raw);
    v = static_cast<int64_t>(raw);
  }
  void Read(double& v) {
    uint64_t raw = 0;
    Read(raw);
    v = std::bit_cast<double>(raw);
  }
  void Read(std::string& s) {
    Take(s, [&] { return r_.ReadString(); });
  }
  void Read(Packet& p) {
    uint32_t len = 0;
    Read(len);
    Take(p, [&]() -> Result<Packet> {
      auto raw = r_.ReadSpan(len);
      if (!raw.ok()) {
        return raw.status();
      }
      return DecodePacket(*raw);
    });
  }
  template <class T>
  void Read(std::vector<T>& v) {
    ReadList<uint16_t>(v);
  }
  template <class V>
  void Read(U8List<V>& list) {
    ReadList<uint8_t>(list.items);
  }
  template <class T>
  void Read(T& record) {
    Fields(*this, record);
  }

  // The count comes off the wire, so it is checked against the bytes left
  // before anything is allocated for it: a count the remaining bytes cannot
  // hold is rejected (the element reads would fail anyway), which bounds the
  // allocation by the datagram's size instead of by the count.
  template <class Count, class V>
  void ReadList(V& items) {
    Count n = 0;
    Read(n);
    if (!status_.ok()) {
      return;
    }
    if (size_t{n} * MinEncodedSize<typename V::value_type>() > r_.remaining()) {
      status_ = InvalidArgumentError("list of " + std::to_string(n) + " elements overruns the " +
                                     std::to_string(r_.remaining()) + " bytes left");
      return;
    }
    items.resize(n);
    for (auto& item : items) {
      Read(item);
      if (!status_.ok()) {
        return;
      }
    }
  }

  ByteReader& r_;
  Status status_;
};

// --- Field lists -------------------------------------------------------------

void Fields(auto& ar, Is<NodeAddress> auto& a) { ar(a.ip, a.port); }
void Fields(auto& ar, Is<AnnouncerId> auto& id) { ar(id.ip, id.start_time_us, id.discriminator); }
void Fields(auto& ar, Is<PortBinding> auto& b) { ar(b.port, b.transport); }
void Fields(auto& ar, Is<EndpointInfo> auto& e) { ar(e.address, e.bindings); }

void Fields(auto& ar, Is<Advertisement> auto& m) {
  ar(m.vspace, m.name_text, m.announcer, m.endpoint, m.app_metric, m.lifetime_s, m.version);
}
void Fields(auto& ar, Is<NameUpdateEntry> auto& e) {
  ar(e.name_text, e.announcer, e.endpoint, e.app_metric, e.route_metric, e.lifetime_s,
     e.version);
}
void Fields(auto& ar, Is<NameUpdate> auto& m) { ar(m.vspace, m.triggered, m.entries); }
void Fields(auto& ar, Is<DiscoveryRequest> auto& m) {
  ar(m.request_id, m.vspace, m.filter_text, m.reply_to);
}
void Fields(auto& ar, Is<DiscoveryResponse::Item> auto& i) {
  ar(i.name_text, i.endpoint, i.app_metric);
}
void Fields(auto& ar, Is<DiscoveryResponse> auto& m) { ar(m.request_id, m.vspace, m.items); }
void Fields(auto& ar, Is<EarlyBindingResponse::Item> auto& i) { ar(i.endpoint, i.app_metric); }
void Fields(auto& ar, Is<EarlyBindingResponse> auto& m) { ar(m.request_id, m.items); }
void Fields(auto& ar, Is<Ping> auto& m) { ar(m.nonce, m.send_time_us); }
void Fields(auto& ar, Is<Pong> auto& m) { ar(m.nonce, m.echo_send_time_us); }
void Fields(auto& ar, Is<PeerRequest> auto& m) { ar(m.requester); }
void Fields(auto& ar, Is<PeerAccept> auto& m) { ar(m.accepter); }
void Fields(auto& ar, Is<PeerClose> auto& m) { ar(m.closer); }
void Fields(auto& ar, Is<DsrRegister> auto& m) { ar(m.inr, m.active, m.vspaces, m.lifetime_s); }
void Fields(auto& ar, Is<DsrListRequest> auto& m) { ar(m.request_id); }
void Fields(auto& ar, Is<DsrListResponse> auto& m) {
  ar(m.request_id, m.active_inrs, m.join_orders);
  ar.Check(m.join_orders.size() == m.active_inrs.size(),
           "join_orders/active_inrs length mismatch");
}
void Fields(auto& ar, Is<DsrVspaceRequest> auto& m) { ar(m.request_id, m.vspace); }
void Fields(auto& ar, Is<DsrVspaceResponse> auto& m) { ar(m.request_id, m.vspace, m.inr); }
void Fields(auto& ar, Is<DsrCandidatesRequest> auto& m) { ar(m.request_id); }
void Fields(auto& ar, Is<DsrCandidatesResponse> auto& m) { ar(m.request_id, m.candidates); }
void Fields(auto& ar, Is<SpawnRequest> auto& m) { ar(m.requester, m.vspaces); }
void Fields(auto& ar, Is<DelegateVspace> auto& m) { ar(m.from, m.vspace); }
void Fields(auto& ar, Is<DsrAssignmentsRequest> auto& m) { ar(m.request_id, m.inr); }
void Fields(auto& ar, Is<DsrAssignmentsResponse> auto& m) { ar(m.request_id, m.vspaces); }
void Fields(auto& ar, Is<PeerKeepalive> auto& m) { ar(m.from); }
void Fields(auto& ar, Is<MetricsRequest> auto& m) { ar(m.request_id, m.reply_to); }
void Fields(auto& ar, Is<MetricsResponse::CounterItem> auto& c) { ar(c.name, c.value); }
void Fields(auto& ar, Is<MetricsResponse::GaugeItem> auto& g) { ar(g.name, g.value); }
void Fields(auto& ar, Is<std::pair<uint8_t, uint64_t>> auto& bucket) {
  ar(bucket.first, bucket.second);  // (bucket index, count)
}
void Fields(auto& ar, Is<MetricsResponse::HistogramItem> auto& h) {
  ar(h.name, h.sum, h.min, h.max, U8List{h.buckets});
}
void Fields(auto& ar, Is<MetricsResponse> auto& m) {
  ar(m.request_id, m.inr, m.counters, m.gauges, m.histograms);
}
void Fields(auto& ar, Is<JournalDigest::Item> auto& i) { ar(i.vspace, i.serial); }
void Fields(auto& ar, Is<JournalDigest> auto& m) { ar(m.from, m.items); }
void Fields(auto& ar, Is<JournalDeltaRequest> auto& m) {
  ar(m.from, m.vspace, m.after_serial, m.full);
}
void Fields(auto& ar, Is<JournalDeltaResponse::Entry> auto& e) {
  ar(e.op, e.name_text, e.announcer, e.endpoint, e.app_metric, e.route_metric, e.lifetime_s,
     e.version);
}
void Fields(auto& ar, Is<JournalDeltaResponse> auto& m) {
  ar(m.from, m.vspace, m.snapshot, m.to_serial, m.seq, m.last, m.entries);
}
void Fields(auto& ar, Is<DsrReplicaSetRequest> auto& m) { ar(m.request_id, m.vspace); }
void Fields(auto& ar, Is<DsrReplicaSetResponse> auto& m) {
  ar(m.request_id, m.vspace, m.replicas, m.candidates);
}
void Fields(auto& ar, Is<ReplicaInvite> auto& m) { ar(m.from, m.vspace); }
void Fields(auto& ar, Is<DsrDeadInrReport> auto& m) { ar(m.reporter, m.dead); }
void Fields(auto& ar, Is<MetricsDeltaRequest> auto& m) {
  ar(m.request_id, m.reply_to, m.since_seq);
}
// The item sections share MetricsResponse's layout; the delta framing
// (seq, since_seq, full) precedes them.
void Fields(auto& ar, Is<MetricsDeltaResponse> auto& m) {
  ar(m.request_id, m.inr, m.seq, m.since_seq, m.full, m.counters, m.gauges, m.histograms);
}

// --- Envelope type byte ------------------------------------------------------

// An alternative's MessageType is its index in MessageBody plus one.
template <class T, class... Ts>
constexpr size_t IndexIn(const std::variant<Ts...>*) {
  size_t i = 0;
  (void)((std::is_same_v<T, Ts> ? false : (++i, true)) && ...);
  return i;
}
template <class T>
constexpr MessageType kTypeOf =
    static_cast<MessageType>(IndexIn<T>(static_cast<const MessageBody*>(nullptr)) + 1);

static_assert(kTypeOf<Packet> == MessageType::kData);
static_assert(kTypeOf<Advertisement> == MessageType::kAdvertisement);
static_assert(kTypeOf<NameUpdate> == MessageType::kNameUpdate);
static_assert(kTypeOf<DiscoveryRequest> == MessageType::kDiscoveryRequest);
static_assert(kTypeOf<DiscoveryResponse> == MessageType::kDiscoveryResponse);
static_assert(kTypeOf<EarlyBindingResponse> == MessageType::kEarlyBindingResponse);
static_assert(kTypeOf<Ping> == MessageType::kPing);
static_assert(kTypeOf<Pong> == MessageType::kPong);
static_assert(kTypeOf<PeerRequest> == MessageType::kPeerRequest);
static_assert(kTypeOf<PeerAccept> == MessageType::kPeerAccept);
static_assert(kTypeOf<PeerClose> == MessageType::kPeerClose);
static_assert(kTypeOf<DsrRegister> == MessageType::kDsrRegister);
static_assert(kTypeOf<DsrListRequest> == MessageType::kDsrListRequest);
static_assert(kTypeOf<DsrListResponse> == MessageType::kDsrListResponse);
static_assert(kTypeOf<DsrVspaceRequest> == MessageType::kDsrVspaceRequest);
static_assert(kTypeOf<DsrVspaceResponse> == MessageType::kDsrVspaceResponse);
static_assert(kTypeOf<DsrCandidatesRequest> == MessageType::kDsrCandidatesRequest);
static_assert(kTypeOf<DsrCandidatesResponse> == MessageType::kDsrCandidatesResponse);
static_assert(kTypeOf<SpawnRequest> == MessageType::kSpawnRequest);
static_assert(kTypeOf<DelegateVspace> == MessageType::kDelegateVspace);
static_assert(kTypeOf<DsrAssignmentsRequest> == MessageType::kDsrAssignmentsRequest);
static_assert(kTypeOf<DsrAssignmentsResponse> == MessageType::kDsrAssignmentsResponse);
static_assert(kTypeOf<PeerKeepalive> == MessageType::kPeerKeepalive);
static_assert(kTypeOf<MetricsRequest> == MessageType::kMetricsRequest);
static_assert(kTypeOf<MetricsResponse> == MessageType::kMetricsResponse);
static_assert(kTypeOf<JournalDigest> == MessageType::kJournalDigest);
static_assert(kTypeOf<JournalDeltaRequest> == MessageType::kJournalDeltaRequest);
static_assert(kTypeOf<JournalDeltaResponse> == MessageType::kJournalDeltaResponse);
static_assert(kTypeOf<DsrReplicaSetRequest> == MessageType::kDsrReplicaSetRequest);
static_assert(kTypeOf<DsrReplicaSetResponse> == MessageType::kDsrReplicaSetResponse);
static_assert(kTypeOf<ReplicaInvite> == MessageType::kReplicaInvite);
static_assert(kTypeOf<DsrDeadInrReport> == MessageType::kDsrDeadInrReport);
static_assert(kTypeOf<MetricsDeltaRequest> == MessageType::kMetricsDeltaRequest);
static_assert(kTypeOf<MetricsDeltaResponse> == MessageType::kMetricsDeltaResponse);

template <class T>
Result<Envelope> DecodeBody(ByteReader& r) {
  Result<Envelope> out(Envelope{MessageBody(std::in_place_type<T>)});
  Reader ar(r);
  ar(std::get<T>(out->body));
  if (!ar.status().ok()) {
    return ar.status();
  }
  return out;
}

// kBodyDecoders[type - 1] decodes the body of a datagram of that type.
constexpr auto kBodyDecoders = []<size_t... I>(std::index_sequence<I...>) {
  return std::array{&DecodeBody<std::variant_alternative_t<I, MessageBody>>...};
}(std::make_index_sequence<std::variant_size_v<MessageBody>>());

}  // namespace

MessageType Envelope::type() const { return static_cast<MessageType>(body.index() + 1); }

uint32_t EnvelopeChecksum(const uint8_t* data, size_t len) {
  // 32-bit FNV-1a. Not cryptographic — it plays the role of the UDP/link
  // checksum the real deployment gets for free: a datagram that took bit
  // damage in flight is dropped at decode instead of poisoning soft state
  // (a flipped NameUpdate version or metric field would otherwise install a
  // route that honest refreshes cannot displace until lifetime expiry).
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

Bytes EncodeMessage(const Envelope& e) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(e.type()));
  std::visit(Writer(w), e.body);
  w.WriteU32(EnvelopeChecksum(w.bytes().data(), w.size()));
  return std::move(w).TakeBytes();
}

Result<Envelope> DecodeMessage(const Bytes& buffer) {
  if (buffer.size() < 5) {  // type byte + trailing checksum
    return InvalidArgumentError("envelope too short");
  }
  const size_t body_len = buffer.size() - 4;
  ByteReader trailer(buffer.data() + body_len, 4);
  uint32_t stored = 0;
  INS_ASSIGN_OR_RETURN(stored, trailer.ReadU32());
  if (EnvelopeChecksum(buffer.data(), body_len) != stored) {
    return InvalidArgumentError("envelope checksum mismatch");
  }
  ByteReader r(buffer.data(), body_len);
  uint8_t raw_type = 0;
  INS_ASSIGN_OR_RETURN(raw_type, r.ReadU8());
  if (raw_type == 0 || raw_type > kBodyDecoders.size()) {
    return InvalidArgumentError("unknown message type " + std::to_string(raw_type));
  }
  return kBodyDecoders[raw_type - 1](r);
}

// --- Metrics snapshot <-> wire items -----------------------------------------

namespace {

MetricsResponse::HistogramItem HistogramItemFrom(const std::string& name,
                                                const Histogram& h) {
  return {name, h.sum(), h.min(), h.max(), h.SparseBuckets()};
}

// Appends the slots of `now` that differ from `baseline` to a MetricsResponse
// or MetricsDeltaResponse. New names count as changed, so an empty baseline
// appends every slot. Histograms compare on recorded count.
template <class Response>
void AppendChangedItems(Response& resp, const MetricsSnapshot& baseline,
                        const MetricsSnapshot& now) {
  for (const auto& [name, value] : now.counters) {
    auto it = baseline.counters.find(name);
    if (it == baseline.counters.end() || it->second != value) {
      resp.counters.push_back({name, value});
    }
  }
  for (const auto& [name, value] : now.gauges) {
    auto it = baseline.gauges.find(name);
    if (it == baseline.gauges.end() || it->second != value) {
      resp.gauges.push_back({name, value});
    }
  }
  // Histograms ship whole (cumulative) whenever any sample landed since the
  // baseline; the client swaps the histogram in rather than merging buckets.
  for (const auto& [name, h] : now.histograms) {
    auto it = baseline.histograms.find(name);
    if (it == baseline.histograms.end() || it->second.count() != h.count()) {
      resp.histograms.push_back(HistogramItemFrom(name, h));
    }
  }
}

// Writes every item of a MetricsResponse or MetricsDeltaResponse into `view`.
template <class Response>
void ApplyItems(const Response& resp, MetricsSnapshot& view) {
  for (const MetricsResponse::CounterItem& c : resp.counters) {
    view.counters[c.name] = c.value;
  }
  for (const MetricsResponse::GaugeItem& g : resp.gauges) {
    view.gauges[g.name] = g.value;
  }
  for (const MetricsResponse::HistogramItem& h : resp.histograms) {
    view.histograms[h.name] = Histogram::FromParts(h.sum, h.min, h.max, h.buckets);
  }
}

}  // namespace

MetricsResponse BuildMetricsResponse(uint64_t request_id, const NodeAddress& inr,
                                     const MetricsSnapshot& snapshot) {
  MetricsResponse resp;
  resp.request_id = request_id;
  resp.inr = inr;
  AppendChangedItems(resp, MetricsSnapshot{}, snapshot);
  return resp;
}

MetricsSnapshot SnapshotFromResponse(const MetricsResponse& resp) {
  MetricsSnapshot snap;
  ApplyItems(resp, snap);
  return snap;
}

MetricsDeltaResponse BuildMetricsFull(uint64_t request_id, const NodeAddress& inr,
                                      uint64_t seq, const MetricsSnapshot& now) {
  MetricsDeltaResponse resp =
      BuildMetricsDelta(request_id, inr, seq, /*since_seq=*/0, MetricsSnapshot{}, now);
  resp.full = true;
  return resp;
}

MetricsDeltaResponse BuildMetricsDelta(uint64_t request_id, const NodeAddress& inr,
                                       uint64_t seq, uint64_t since_seq,
                                       const MetricsSnapshot& baseline,
                                       const MetricsSnapshot& now) {
  MetricsDeltaResponse resp;
  resp.request_id = request_id;
  resp.inr = inr;
  resp.seq = seq;
  resp.since_seq = since_seq;
  resp.full = false;
  AppendChangedItems(resp, baseline, now);
  return resp;
}

void ApplyMetricsDelta(const MetricsDeltaResponse& resp, MetricsSnapshot& view) {
  if (resp.full) {
    view = MetricsSnapshot{};
  }
  ApplyItems(resp, view);
}

}  // namespace ins
