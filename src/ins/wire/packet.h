// The INS data-packet format (paper Figure 10).
//
// A data packet carries a source and destination name-specifier (as wire
// text), two bit-flags — B selects early vs. late binding, D selects anycast
// (`any`) vs. multicast (`all`) delivery — a hop limit decremented at each
// overlay hop, a cache lifetime governing INR-side data caching, and the
// opaque application payload. Because name-specifiers are variable length,
// the header stores byte offsets ("pointers") to the source name, destination
// name, and data, so a forwarding agent can locate the payload without
// parsing the names. INRs never interpret application data.

#ifndef INS_WIRE_PACKET_H_
#define INS_WIRE_PACKET_H_

#include <cstdint>
#include <span>
#include <string>

#include "ins/common/bytes.h"
#include "ins/common/status.h"

namespace ins {

inline constexpr uint8_t kInsVersion = 1;
inline constexpr uint16_t kDefaultHopLimit = 16;

// Flag bits (the paper's B and D single-bit flags, plus the cache-probe bit
// added by the application-independent caching extension of §3.2, plus the
// trace-sampled bit of the observability layer).
inline constexpr uint8_t kFlagEarlyBinding = 0x01;  // B: 1 = early binding
inline constexpr uint8_t kFlagDeliverAll = 0x02;    // D: 1 = multicast (all)
inline constexpr uint8_t kFlagAnswerFromCache = 0x04;
// 1 = an 8-byte trace id follows the fixed header (hop-by-hop tracing). The
// bit is set exactly when trace_id != 0, so untraced packets are byte-for-
// byte the seed wire format.
inline constexpr uint8_t kFlagTraceSampled = 0x08;

struct Packet {
  uint8_t version = kInsVersion;
  bool early_binding = false;    // B flag
  bool deliver_all = false;      // D flag: false = anycast, true = multicast
  bool answer_from_cache = false;
  uint16_t hop_limit = kDefaultHopLimit;
  uint32_t cache_lifetime_s = 0;  // 0 disallows caching
  // Remaining end-to-end deadline budget in milliseconds; 0 = no deadline.
  // Each INR charges the packet for overlay hops and (under overload) for
  // the time it spent queued, and drops it once the budget is exhausted —
  // doing dead work for a request the client already gave up on only deepens
  // an overload. Carried in the reserved space of the Figure-10 header.
  uint16_t deadline_budget_ms = 0;
  // Trace context: non-zero = this packet is sampled for hop-by-hop tracing
  // and its id travels in a header extension behind kFlagTraceSampled. Zero
  // (the default) adds no wire bytes and no per-hop work.
  uint64_t trace_id = 0;
  std::string source_name;        // wire text of the source name-specifier
  std::string destination_name;   // wire text of the destination name-specifier
  Bytes payload;

  bool traced() const { return trace_id != 0; }

  // Total encoded size in bytes.
  size_t EncodedSize() const;
};

// Fixed header layout (20 bytes), all fields big-endian:
//   u8  version        u8  flags          u16 hop limit
//   u32 cache lifetime (seconds)
//   u16 deadline budget (ms)  u16 reserved (must-be-zero on send, ignored)
//   u16 ptr to source name   u16 ptr to destination name
//   u16 ptr to data          u16 total length
// followed by the two name-specifier texts and the payload at the offsets the
// pointers give.
//
// When the trace flag (0x08) is set, a u64 trace id sits between the fixed
// header and the source name — the pointer fields already locate every
// section, so a seed-era reader that checked offsets instead of hard-coding
// them would still find names and payload. Untraced packets carry no
// extension: their bytes are identical to the seed format.
inline constexpr size_t kPacketHeaderSize = 20;
inline constexpr size_t kPacketTraceExtensionSize = 8;

// Charges `elapsed_ms` against the packet's deadline budget. Returns false —
// and zeroes the budget — when the budget is exhausted and the packet should
// be dropped instead of forwarded. A packet with no deadline (budget 0) is
// never exhausted. Every charge is at least 1 ms so a finite budget always
// decreases hop by hop.
bool ConsumeDeadlineBudget(Packet& p, uint32_t elapsed_ms);

Bytes EncodePacket(const Packet& p);
// Appends the encoding to `w` (the kData envelope writes it in place).
void EncodePacket(const Packet& p, ByteWriter& w);
// `buffer` is exactly one encoded packet: its total-length field must match.
Result<Packet> DecodePacket(std::span<const uint8_t> buffer);

// Reads only the payload location from an encoded packet without touching
// the names — the forwarding fast path the pointer fields exist for. Returns
// (offset, length) of the data section.
Result<std::pair<size_t, size_t>> LocatePayload(const Bytes& buffer);

}  // namespace ins

#endif  // INS_WIRE_PACKET_H_
