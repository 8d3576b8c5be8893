// Hostile list counts must hit an explicit bound. A list count comes straight
// off the wire, so a tiny datagram can claim 65535 entries; the decoder must
// reject it from the bytes left instead of reserving memory for the claim.
// This binary replaces global operator new to measure the bytes requested.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ins/wire/messages.h"

namespace {
std::atomic<bool> g_count_bytes{false};
std::atomic<uint64_t> g_bytes{0};

void* CountedAlloc(size_t size) {
  if (g_count_bytes.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace ins {
namespace {

constexpr uint64_t kBudgetBytes = 64 * 1024;

// Bytes requested from operator new while `fn` runs.
template <class Fn>
uint64_t BytesRequested(Fn fn) {
  g_bytes.store(0);
  g_count_bytes.store(true);
  fn();
  g_count_bytes.store(false);
  return g_bytes.load();
}

// Seals a hand-built body into a datagram with the envelope checksum.
Bytes Seal(ByteWriter body) {
  body.WriteU32(EnvelopeChecksum(body.bytes().data(), body.size()));
  return std::move(body).TakeBytes();
}

TEST(WireBoundsTest, NameUpdateClaimingMaxEntriesIsRejectedCheaply) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kNameUpdate));
  w.WriteString("");  // vspace
  w.WriteU8(0);       // triggered
  w.WriteU16(0xffff);  // entry count; no entries follow
  const Bytes datagram = Seal(std::move(w));
  ASSERT_EQ(datagram.size(), 10u);

  bool ok = true;
  const uint64_t bytes = BytesRequested([&] { ok = DecodeMessage(datagram).ok(); });
  EXPECT_FALSE(ok);
  EXPECT_LT(bytes, kBudgetBytes);
}

TEST(WireBoundsTest, JournalDeltaResponseClaimingMaxEntriesIsRejectedCheaply) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kJournalDeltaResponse));
  w.WriteU32(1);  // from.ip
  w.WriteU16(2);  // from.port
  w.WriteString("");  // vspace
  w.WriteU8(0);       // snapshot
  w.WriteU64(42);     // to_serial
  w.WriteU32(0);      // seq
  w.WriteU8(1);       // last
  w.WriteU16(0xffff);  // entry count; no entries follow
  const Bytes datagram = Seal(std::move(w));
  ASSERT_EQ(datagram.size(), 29u);

  bool ok = true;
  const uint64_t bytes = BytesRequested([&] { ok = DecodeMessage(datagram).ok(); });
  EXPECT_FALSE(ok);
  EXPECT_LT(bytes, kBudgetBytes);
}

TEST(WireBoundsTest, CountOneBeyondTheBytesLeftIsRejected) {
  // Three minimal JournalDigest items (empty vspace + u64 serial) but a count
  // of four: the count alone proves the datagram short.
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kJournalDigest));
  w.WriteU32(1);
  w.WriteU16(2);
  w.WriteU16(4);
  for (int i = 0; i < 3; ++i) {
    w.WriteString("");
    w.WriteU64(static_cast<uint64_t>(i));
  }
  EXPECT_FALSE(DecodeMessage(Seal(std::move(w))).ok());
}

TEST(WireBoundsTest, ListsOfMinimumSizeElementsFillingTheDatagramStillDecode) {
  // The bound is exact: elements at their minimum encoded size that use up
  // every remaining byte are accepted.
  JournalDigest digest;
  digest.from = MakeAddress(1);
  digest.items.resize(6000);  // 10 bytes each: empty vspace + u64 serial
  for (size_t i = 0; i < digest.items.size(); ++i) {
    digest.items[i].serial = i;
  }
  auto decoded = DecodeMessage(Encode(digest));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& out = std::get<JournalDigest>(decoded->body);
  ASSERT_EQ(out.items.size(), digest.items.size());
  EXPECT_EQ(out.items.back().serial, digest.items.size() - 1);

  DsrListResponse list;
  list.request_id = 7;
  list.active_inrs.assign(3000, MakeAddress(2));
  list.join_orders.assign(3000, 9);
  decoded = DecodeMessage(Encode(list));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(std::get<DsrListResponse>(decoded->body).join_orders.size(), 3000u);
}

}  // namespace
}  // namespace ins
