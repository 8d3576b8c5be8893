// Robustness property tests on the wire codecs and the parser: random and
// mutated inputs must never crash, and valid inputs must round-trip. The
// resolvers sit on an open UDP port (§2: any device can talk to an INR), so
// decoder hardening is a correctness requirement, not a nicety.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>

#include "ins/name/parser.h"
#include "ins/wire/messages.h"
#include "ins/workload/namegen.h"

namespace ins {
namespace {

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomBytesNeverCrashDecoder) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.NextBelow(300));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    auto result = DecodeMessage(garbage);  // must return, never crash
    (void)result;
  }
}

TEST_P(WireFuzzTest, TruncationsOfValidMessagesNeverCrash) {
  Rng rng(GetParam());
  NameUpdate update;
  update.vspace = "building";
  for (int i = 0; i < 4; ++i) {
    NameUpdateEntry e;
    e.name_text = GenerateSizedName(rng, 82).ToString();
    e.announcer = AnnouncerId{1, 2, static_cast<uint32_t>(i)};
    e.endpoint.address = MakeAddress(3);
    e.endpoint.bindings = {{80, "http"}, {554, "rtsp"}};
    e.lifetime_s = 45;
    update.entries.push_back(std::move(e));
  }
  Bytes valid = Encode(update);
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
    auto result = DecodeMessage(truncated);
    EXPECT_FALSE(result.ok()) << "truncation to " << len << " decoded";
  }
}

TEST_P(WireFuzzTest, SingleByteMutationsNeverCrash) {
  Rng rng(GetParam());
  Advertisement ad;
  ad.vspace = "v";
  ad.name_text = GenerateSizedName(rng, 82).ToString();
  ad.announcer = AnnouncerId{7, 8, 9};
  ad.endpoint.address = MakeAddress(3);
  ad.endpoint.bindings = {{80, "http"}};
  ad.lifetime_s = 45;
  Bytes valid = Encode(ad);
  for (int i = 0; i < 1000; ++i) {
    Bytes mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    auto result = DecodeMessage(mutated);
    (void)result;  // ok() either way; just must not crash or over-read
  }
}

TEST_P(WireFuzzTest, RandomPacketsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    Packet p;
    p.early_binding = rng.NextBool(0.3);
    p.deliver_all = rng.NextBool(0.3);
    p.answer_from_cache = rng.NextBool(0.2);
    p.hop_limit = static_cast<uint16_t>(rng.NextBelow(32));
    p.cache_lifetime_s = static_cast<uint32_t>(rng.NextBelow(1000));
    p.source_name = GenerateSizedName(rng, 40 + rng.NextBelow(80)).ToString();
    p.destination_name = GenerateSizedName(rng, 40 + rng.NextBelow(80)).ToString();
    p.payload = Bytes(rng.NextBelow(600), static_cast<uint8_t>(rng.NextU64()));
    if (rng.NextBool(0.3)) {
      p.trace_id = rng.NextU64();  // sampled: header grows by the extension
    }
    auto decoded = DecodePacket(EncodePacket(p));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->source_name, p.source_name);
    EXPECT_EQ(decoded->destination_name, p.destination_name);
    EXPECT_EQ(decoded->payload, p.payload);
    EXPECT_EQ(decoded->hop_limit, p.hop_limit);
    EXPECT_EQ(decoded->trace_id, p.trace_id);
  }
}

TEST_P(WireFuzzTest, ParserNeverCrashesOnRandomText) {
  Rng rng(GetParam());
  const char alphabet[] = "[]=<>* \tabz019.-";
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    size_t len = rng.NextBelow(120);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    auto result = ParseNameSpecifier(text);  // must return, never crash
    if (result.ok()) {
      // Anything accepted must survive a canonicalization round trip.
      auto again = ParseNameSpecifier(result->ToString());
      ASSERT_TRUE(again.ok()) << "'" << text << "' -> '" << result->ToString() << "'";
      EXPECT_EQ(*again, *result);
    }
  }
}

TEST_P(WireFuzzTest, GeneratedNamesAlwaysRoundTripThroughWireText) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    UniformNameParams shape{1 + rng.NextBelow(4), 1 + rng.NextBelow(4), 0, 1 + rng.NextBelow(4)};
    shape.na = 1 + rng.NextBelow(shape.ra);
    NameSpecifier n = GenerateUniformName(rng, shape);
    auto parsed = ParseNameSpecifier(n.ToString());
    ASSERT_TRUE(parsed.ok()) << n.ToString();
    EXPECT_EQ(*parsed, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Values(1, 2, 3, 4, 5));

// --- Exhaustive corruption sweep ---------------------------------------------
//
// One valid instance of every control message type; every single-bit flip of
// every byte, and every truncation, must decode without crashing or
// over-reading (run under ASan/UBSan in CI). This is what the in-flight
// corruption the fault injector produces looks like on arrival.

std::vector<Bytes> EncodedSpecimens() {
  Rng rng(99);
  std::vector<Bytes> specimens;

  Packet p;
  p.hop_limit = 8;
  p.source_name = "[service=fuzz]";
  p.destination_name = GenerateSizedName(rng, 82).ToString();
  p.payload = {1, 2, 3};
  specimens.push_back(Encode(p));

  Advertisement ad;
  ad.vspace = "v";
  ad.name_text = GenerateSizedName(rng, 82).ToString();
  ad.announcer = AnnouncerId{7, 8, 9};
  ad.endpoint.address = MakeAddress(3);
  ad.endpoint.bindings = {{80, "http"}};
  ad.lifetime_s = 45;
  specimens.push_back(Encode(ad));

  NameUpdate update;
  update.vspace = "building";
  for (int i = 0; i < 2; ++i) {
    NameUpdateEntry e;
    e.name_text = GenerateSizedName(rng, 82).ToString();
    e.announcer = AnnouncerId{1, 2, static_cast<uint32_t>(i)};
    e.endpoint.address = MakeAddress(3);
    e.endpoint.bindings = {{554, "rtsp"}};
    e.lifetime_s = 45;
    update.entries.push_back(std::move(e));
  }
  specimens.push_back(Encode(update));

  DiscoveryRequest dreq;
  dreq.request_id = 5;
  dreq.vspace = "cam";
  dreq.filter_text = "[service=camera]";
  dreq.reply_to = MakeAddress(9);
  specimens.push_back(Encode(dreq));

  DiscoveryResponse dresp;
  dresp.request_id = 5;
  dresp.vspace = "cam";
  dresp.items.push_back({"[service=camera[id=c1]]",
                         EndpointInfo{MakeAddress(4), {{554, "rtsp"}}}, 1.5});
  specimens.push_back(Encode(dresp));

  EarlyBindingResponse eb;
  eb.request_id = 6;
  eb.items.push_back({EndpointInfo{MakeAddress(4), {{80, "http"}}}, 0.5});
  specimens.push_back(Encode(eb));

  specimens.push_back(Encode(Ping{42, 123456}));
  specimens.push_back(Encode(Pong{42, 123456}));
  specimens.push_back(Encode(PeerRequest{MakeAddress(1)}));
  specimens.push_back(Encode(PeerAccept{MakeAddress(2)}));
  specimens.push_back(Encode(PeerClose{MakeAddress(3)}));

  DsrRegister reg;
  reg.inr = MakeAddress(4);
  reg.active = true;
  reg.vspaces = {"a", "b"};
  reg.lifetime_s = 60;
  specimens.push_back(Encode(reg));

  specimens.push_back(Encode(DsrListRequest{11}));

  DsrListResponse list;
  list.request_id = 11;
  list.active_inrs = {MakeAddress(1), MakeAddress(2)};
  list.join_orders = {1, 2};
  specimens.push_back(Encode(list));

  specimens.push_back(Encode(DsrVspaceRequest{12, "cam"}));
  specimens.push_back(Encode(DsrVspaceResponse{12, "cam", MakeAddress(2)}));
  specimens.push_back(Encode(DsrCandidatesRequest{13}));
  specimens.push_back(Encode(DsrCandidatesResponse{13, {MakeAddress(7)}}));
  specimens.push_back(Encode(SpawnRequest{MakeAddress(1), {"cam"}}));
  specimens.push_back(Encode(DelegateVspace{MakeAddress(1), "cam"}));
  specimens.push_back(Encode(DsrAssignmentsRequest{14, MakeAddress(2)}));
  specimens.push_back(Encode(DsrAssignmentsResponse{14, {"cam", "building"}}));
  specimens.push_back(Encode(PeerKeepalive{MakeAddress(3)}));

  MetricsRequest mreq;
  mreq.request_id = 15;
  mreq.reply_to = MakeAddress(9);
  specimens.push_back(Encode(mreq));

  MetricsResponse mresp;
  mresp.request_id = 15;
  mresp.inr = MakeAddress(1);
  mresp.counters = {{"forwarding.packets", 123}, {"forwarding.drop.no_match", 4}};
  mresp.gauges = {{"inr.names", 17}, {"admission.lag_us", -1}};
  MetricsResponse::HistogramItem h;
  h.name = "forwarding.lookup_us";
  h.sum = 900;
  h.min = 100;
  h.max = 500;
  h.buckets = {{7, 2}, {9, 1}};
  mresp.histograms.push_back(std::move(h));
  specimens.push_back(Encode(mresp));

  JournalDigest jd;
  jd.from = MakeAddress(1);
  jd.items = {{"", 42}, {"cam", 7}};
  specimens.push_back(Encode(jd));

  JournalDeltaRequest jreq;
  jreq.from = MakeAddress(2);
  jreq.vspace = "cam";
  jreq.after_serial = 7;
  specimens.push_back(Encode(jreq));

  JournalDeltaResponse jresp;
  jresp.from = MakeAddress(1);
  jresp.vspace = "cam";
  jresp.to_serial = 42;
  jresp.seq = 0;
  jresp.last = true;
  JournalDeltaResponse::Entry upsert;
  upsert.op = 0;
  upsert.name_text = GenerateSizedName(rng, 82).ToString();
  upsert.announcer = AnnouncerId{1, 2, 3};
  upsert.endpoint = EndpointInfo{MakeAddress(4), {{554, "rtsp"}}};
  upsert.app_metric = 1.5;
  upsert.route_metric = 3.25;
  upsert.lifetime_s = 45;
  upsert.version = 9;
  jresp.entries.push_back(std::move(upsert));
  JournalDeltaResponse::Entry tombstone;
  tombstone.op = 1;
  tombstone.announcer = AnnouncerId{1, 2, 4};
  jresp.entries.push_back(std::move(tombstone));
  specimens.push_back(Encode(jresp));

  specimens.push_back(Encode(DsrReplicaSetRequest{(1ull << 63) | 16, "cam"}));
  DsrReplicaSetResponse rset;
  rset.request_id = 16;
  rset.vspace = "cam";
  rset.replicas = {MakeAddress(1), MakeAddress(2)};
  rset.candidates = {MakeAddress(3)};
  specimens.push_back(Encode(rset));
  specimens.push_back(Encode(ReplicaInvite{MakeAddress(1), "cam"}));
  specimens.push_back(Encode(DsrDeadInrReport{MakeAddress(2), MakeAddress(1)}));

  MetricsDeltaRequest mdreq;
  mdreq.request_id = (1ull << 62) | 5;
  mdreq.reply_to = MakeAddress(9);
  mdreq.since_seq = 17;
  specimens.push_back(Encode(mdreq));

  MetricsDeltaResponse mdresp;
  mdresp.request_id = 5;
  mdresp.inr = MakeAddress(1);
  mdresp.seq = 18;
  mdresp.since_seq = 17;
  mdresp.full = false;
  mdresp.counters = {{"forwarding.delivered", 41}, {"lookup.requests", 1002}};
  mdresp.gauges = {{"topology.neighbors", 3}};
  MetricsResponse::HistogramItem dh;
  dh.name = "latency.stage.lookup";
  dh.sum = 1234;
  dh.min = 80;
  dh.max = 700;
  dh.buckets = {{6, 3}, {8, 2}};
  mdresp.histograms.push_back(std::move(dh));
  specimens.push_back(Encode(mdresp));

  // One specimen beyond the one-per-type set: a SAMPLED packet, whose
  // header carries the trace extension — the sweep must cover both layouts.
  Packet traced = p;
  traced.trace_id = 0xDEADBEEFCAFEF00Dull;
  specimens.push_back(Encode(traced));
  return specimens;
}

TEST(WireCorruptionSweepTest, EveryBitFlipOfEveryMessageTypeIsSafe) {
  std::vector<Bytes> specimens = EncodedSpecimens();
  // One specimen per message type plus the traced-packet variant.
  ASSERT_EQ(specimens.size(), std::variant_size_v<MessageBody> + 1);
  for (const Bytes& valid : specimens) {
    ASSERT_TRUE(DecodeMessage(valid).ok());
    for (size_t byte = 0; byte < valid.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutated = valid;
        mutated[byte] ^= static_cast<uint8_t>(1u << bit);
        auto result = DecodeMessage(mutated);
        (void)result;  // either verdict is fine; must not crash or over-read
      }
    }
  }
}

TEST(WireCorruptionSweepTest, EveryTruncationOfEveryMessageTypeIsRejected) {
  for (const Bytes& valid : EncodedSpecimens()) {
    for (size_t len = 0; len < valid.size(); ++len) {
      Bytes truncated(valid.begin(), valid.begin() + static_cast<long>(len));
      auto result = DecodeMessage(truncated);
      EXPECT_FALSE(result.ok()) << "truncation to " << len << " decoded";
    }
  }
}

// --- Golden bytes -------------------------------------------------------------
//
// The exact encoding of every specimen above, as hex. Round-trip tests cannot
// notice a codec that drifts symmetrically on both sides; these bytes can.
// They were recorded once from the hand-written codec and pin the wire format
// (perfbench also reads fixed offsets out of kData and EarlyBindingResponse
// datagrams). A codec change must reproduce them; never regenerate them.

const char* const kGoldenSpecimenHex[] = {
    // Packet
    "010000006e01000008000000000000000000140022006b006e5b736572766963653d66757a7a5d5b"
    "726f6f6d3d3534375d5b736572766963653d73656e736f725b69643d6e31323434365d5d5b78303d"
    "793237365d5b78313d793534305d5b78323d793634385d5b78333d793430345d01020314465888",
    // Advertisement
    "02000176004a5b726f6f6d3d3530395d5b736572766963653d7072696e7465725b69643d6e333934"
    "35355d5d5b78303d793832375d5b78313d793837345d5b78323d793936365d5b78333d793230355d"
    "000000070000000000000008000000090a000003162e000100500004687474700000000000000000"
    "0000002d000000000000000012c1751b",
    // NameUpdate
    "0300086275696c64696e6700000200485b726f6f6d3d3439325d5b736572766963653d63616d6572"
    "615b69643d6e37383639365d5d5b78303d793936385d5b78313d793631325d5b78323d7937315d5b"
    "78333d793337345d000000010000000000000002000000000a000003162e0001022a000472747370"
    "000000000000000000000000000000000000002d000000000000000000495b726f6f6d3d3434355d"
    "5b736572766963653d73656e736f725b69643d6e37373630355d5d5b78303d793532385d5b78313d"
    "793931355d5b78323d793836355d5b78333d793235375d000000010000000000000002000000010a"
    "000003162e0001022a000472747370000000000000000000000000000000000000002d0000000000"
    "0000008209394b",
    // DiscoveryRequest
    "040000000000000005000363616d00105b736572766963653d63616d6572615d0a000009162ecb1c"
    "0e02",
    // DiscoveryResponse
    "050000000000000005000363616d000100175b736572766963653d63616d6572615b69643d63315d"
    "5d0a000004162e0001022a0004727473703ff80000000000008e7707f3",
    // EarlyBindingResponse
    "06000000000000000600010a000004162e000100500004687474703fe0000000000000a83bd302",
    // Ping
    "07000000000000002a000000000001e240506a8391",
    // Pong
    "08000000000000002a000000000001e2406455f9e8",
    // PeerRequest
    "090a000001162e38f92ae1",
    // PeerAccept
    "0a0a000002162ee76c4a1d",
    // PeerClose
    "0b0a000003162e586a20e9",
    // DsrRegister
    "0c0a000004162e0100020001610001620000003cb34d165b",
    // DsrListRequest
    "0d000000000000000b27bfbcf9",
    // DsrListResponse
    "0e000000000000000b00020a000001162e0a000002162e0002000000000000000100000000000000"
    "0215686f24",
    // DsrVspaceRequest
    "0f000000000000000c000363616d876a0f76",
    // DsrVspaceResponse
    "10000000000000000c000363616d0a000002162ef6551535",
    // DsrCandidatesRequest
    "11000000000000000dc128d81b",
    // DsrCandidatesResponse
    "12000000000000000d00010a000007162e60a8832e",
    // SpawnRequest
    "130a000001162e0001000363616d1bcb1130",
    // DelegateVspace
    "140a000001162e000363616d7e2767be",
    // DsrAssignmentsRequest
    "15000000000000000e0a000002162ea6fa78ea",
    // DsrAssignmentsResponse
    "16000000000000000e0002000363616d00086275696c64696e6702f31a17",
    // PeerKeepalive
    "170a000003162ec70b4db5",
    // MetricsRequest
    "18000000000000000f0a000009162e6a9c5eb7",
    // MetricsResponse
    "19000000000000000f0a000001162e00020012666f7277617264696e672e7061636b657473000000"
    "000000007b0018666f7277617264696e672e64726f702e6e6f5f6d61746368000000000000000400"
    "020009696e722e6e616d65730000000000000011001061646d697373696f6e2e6c61675f7573ffff"
    "ffffffffffff00010014666f7277617264696e672e6c6f6f6b75705f757300000000000003840000"
    "00000000006400000000000001f402070000000000000002090000000000000001ff63f3bd",
    // JournalDigest
    "1a0a000001162e00020000000000000000002a000363616d0000000000000007f4d9be55",
    // JournalDeltaRequest
    "1b0a000002162e000363616d000000000000000700285292c5",
    // JournalDeltaResponse
    "1c0a000001162e000363616d00000000000000002a000000000100020000485b726f6f6d3d353438"
    "5d5b736572766963653d73656e736f725b69643d6e37373836305d5d5b78303d793935345d5b7831"
    "3d793930315d5b78323d793330315d5b78333d7935315d000000010000000000000002000000030a"
    "000004162e0001022a0004727473703ff8000000000000400a0000000000000000002d0000000000"
    "00000901000000000001000000000000000200000004000000000000000000000000000000000000"
    "0000000000000000000000000000000000001d8bd01f",
    // DsrReplicaSetRequest
    "1d8000000000000010000363616de69e0848",
    // DsrReplicaSetResponse
    "1e0000000000000010000363616d00020a000001162e0a000002162e00010a000003162e839af2b4",
    // ReplicaInvite
    "1f0a000001162e000363616dce58d891",
    // DsrDeadInrReport
    "200a000002162e0a000001162e53263746",
    // MetricsDeltaRequest
    "2140000000000000050a000009162e0000000000000011c2e50015",
    // MetricsDeltaResponse
    "2200000000000000050a000001162e000000000000001200000000000000110000020014666f7277"
    "617264696e672e64656c6976657265640000000000000029000f6c6f6f6b75702e72657175657374"
    "7300000000000003ea00010012746f706f6c6f67792e6e65696768626f7273000000000000000300"
    "0100146c6174656e63792e73746167652e6c6f6f6b757000000000000004d2000000000000005000"
    "000000000002bc02060000000000000003080000000000000002469aff58",
    // traced Packet
    "0100000076010800080000000000000000001c002a00730076deadbeefcafef00d5b736572766963"
    "653d66757a7a5d5b726f6f6d3d3534375d5b736572766963653d73656e736f725b69643d6e313234"
    "34365d5d5b78303d793237365d5b78313d793534305d5b78323d793634385d5b78333d793430345d"
    "01020308d0c431",
};

std::string ToHex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

Bytes FromHex(std::string_view hex) {
  Bytes bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(WireGoldenTest, EverySpecimenEncodesToThePinnedBytes) {
  std::vector<Bytes> specimens = EncodedSpecimens();
  ASSERT_EQ(specimens.size(), std::size(kGoldenSpecimenHex));
  for (size_t i = 0; i < specimens.size(); ++i) {
    EXPECT_EQ(ToHex(specimens[i]), kGoldenSpecimenHex[i]) << "specimen " << i;
  }
}

TEST(WireGoldenTest, PinnedBytesDecodeAndReencodeIdentically) {
  for (const char* hex : kGoldenSpecimenHex) {
    auto decoded = DecodeMessage(FromHex(hex));
    ASSERT_TRUE(decoded.ok()) << hex << ": " << decoded.status();
    EXPECT_EQ(ToHex(EncodeMessage(*decoded)), hex);
  }
}

}  // namespace
}  // namespace ins
