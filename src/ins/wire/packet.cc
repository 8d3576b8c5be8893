#include "ins/wire/packet.h"

namespace ins {

size_t Packet::EncodedSize() const {
  return kPacketHeaderSize + (traced() ? kPacketTraceExtensionSize : 0) +
         source_name.size() + destination_name.size() + payload.size();
}

bool ConsumeDeadlineBudget(Packet& p, uint32_t elapsed_ms) {
  if (p.deadline_budget_ms == 0) {
    return true;  // no deadline
  }
  const uint32_t charge = elapsed_ms == 0 ? 1 : elapsed_ms;
  if (charge >= p.deadline_budget_ms) {
    p.deadline_budget_ms = 0;
    return false;
  }
  p.deadline_budget_ms = static_cast<uint16_t>(p.deadline_budget_ms - charge);
  return true;
}

Bytes EncodePacket(const Packet& p) {
  ByteWriter w;
  EncodePacket(p, w);
  return std::move(w).TakeBytes();
}

void EncodePacket(const Packet& p, ByteWriter& w) {
  uint8_t flags = 0;
  if (p.early_binding) {
    flags |= kFlagEarlyBinding;
  }
  if (p.deliver_all) {
    flags |= kFlagDeliverAll;
  }
  if (p.answer_from_cache) {
    flags |= kFlagAnswerFromCache;
  }
  if (p.traced()) {
    flags |= kFlagTraceSampled;
  }
  const size_t src_off = kPacketHeaderSize + (p.traced() ? kPacketTraceExtensionSize : 0);
  const size_t dst_off = src_off + p.source_name.size();
  const size_t data_off = dst_off + p.destination_name.size();
  const size_t total = data_off + p.payload.size();

  w.WriteU8(p.version);
  w.WriteU8(flags);
  w.WriteU16(p.hop_limit);
  w.WriteU32(p.cache_lifetime_s);
  w.WriteU16(p.deadline_budget_ms);
  w.WriteU16(0);  // reserved
  w.WriteU16(static_cast<uint16_t>(src_off));
  w.WriteU16(static_cast<uint16_t>(dst_off));
  w.WriteU16(static_cast<uint16_t>(data_off));
  w.WriteU16(static_cast<uint16_t>(total));
  if (p.traced()) {
    w.WriteU64(p.trace_id);
  }
  w.WriteBytes(reinterpret_cast<const uint8_t*>(p.source_name.data()), p.source_name.size());
  w.WriteBytes(reinterpret_cast<const uint8_t*>(p.destination_name.data()),
               p.destination_name.size());
  w.WriteBytes(p.payload);
}

namespace {

struct HeaderFields {
  uint8_t version;
  uint8_t flags;
  uint16_t hop_limit;
  uint32_t cache_lifetime_s;
  uint16_t deadline_budget_ms;
  uint64_t trace_id;
  size_t src_off;
  size_t dst_off;
  size_t data_off;
  size_t total;
};

Result<HeaderFields> ReadHeader(std::span<const uint8_t> buffer) {
  if (buffer.size() < kPacketHeaderSize) {
    return InvalidArgumentError("packet shorter than header: " +
                                std::to_string(buffer.size()) + " bytes");
  }
  ByteReader r(buffer.data(), buffer.size());
  HeaderFields h;
  h.version = *r.ReadU8();
  if (h.version != kInsVersion) {
    return InvalidArgumentError("unsupported INS version " + std::to_string(h.version));
  }
  h.flags = *r.ReadU8();
  h.hop_limit = *r.ReadU16();
  h.cache_lifetime_s = *r.ReadU32();
  h.deadline_budget_ms = *r.ReadU16();
  r.ReadU16();  // reserved; ignored on receive
  h.src_off = *r.ReadU16();
  h.dst_off = *r.ReadU16();
  h.data_off = *r.ReadU16();
  h.total = *r.ReadU16();
  // The source name starts right after the fixed header — or after the trace
  // extension when the trace flag says one is present. Either way every
  // truncation or pointer inversion is rejected here.
  const bool traced = (h.flags & kFlagTraceSampled) != 0;
  const size_t expected_src_off =
      kPacketHeaderSize + (traced ? kPacketTraceExtensionSize : 0);
  if (h.src_off != expected_src_off || h.dst_off < h.src_off || h.data_off < h.dst_off ||
      h.total < h.data_off || h.total != buffer.size()) {
    return InvalidArgumentError("inconsistent packet pointers");
  }
  h.trace_id = 0;
  if (traced) {
    auto id = r.ReadU64();
    if (!id.ok()) {
      return id.status();
    }
    h.trace_id = *id;
  }
  return h;
}

}  // namespace

Result<Packet> DecodePacket(std::span<const uint8_t> buffer) {
  auto h = ReadHeader(buffer);
  if (!h.ok()) {
    return h.status();
  }
  Packet p;
  p.version = h->version;
  p.early_binding = (h->flags & kFlagEarlyBinding) != 0;
  p.deliver_all = (h->flags & kFlagDeliverAll) != 0;
  p.answer_from_cache = (h->flags & kFlagAnswerFromCache) != 0;
  p.hop_limit = h->hop_limit;
  p.cache_lifetime_s = h->cache_lifetime_s;
  p.deadline_budget_ms = h->deadline_budget_ms;
  p.trace_id = h->trace_id;
  p.source_name.assign(reinterpret_cast<const char*>(buffer.data() + h->src_off),
                       h->dst_off - h->src_off);
  p.destination_name.assign(reinterpret_cast<const char*>(buffer.data() + h->dst_off),
                            h->data_off - h->dst_off);
  p.payload.assign(buffer.begin() + static_cast<long>(h->data_off),
                   buffer.begin() + static_cast<long>(h->total));
  return p;
}

Result<std::pair<size_t, size_t>> LocatePayload(const Bytes& buffer) {
  auto h = ReadHeader(buffer);
  if (!h.ok()) {
    return h.status();
  }
  return std::make_pair(h->data_off, h->total - h->data_off);
}

}  // namespace ins
