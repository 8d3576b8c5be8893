#include "tracing.h"

#include <algorithm>

#include "ins/wire/messages.h"

namespace perfbench {

namespace {

uint64_t ReadU64At(const ins::Bytes& data, size_t offset) {
  if (offset + 8 > data.size()) {
    return 0;
  }
  ins::ByteReader r(data.data() + offset, 8);
  auto v = r.ReadU64();
  return v.ok() ? *v : 0;
}

}  // namespace

size_t PayloadOffsetOf(const ins::Bytes& data) {
  constexpr size_t kPacketStart = 5;  // type byte + u32 packet length
  constexpr size_t kDataPointer = kPacketStart + 16;
  if (KindOf(data) != static_cast<uint8_t>(ins::MessageType::kData) ||
      data.size() < kPacketStart + ins::kPacketHeaderSize) {
    return 0;
  }
  return kPacketStart + ((static_cast<size_t>(data[kDataPointer]) << 8) | data[kDataPointer + 1]);
}

uint64_t RequestIdOf(const ins::Bytes& data) {
  switch (static_cast<ins::MessageType>(KindOf(data))) {
    case ins::MessageType::kData: {
      const size_t at = PayloadOffsetOf(data);
      return at == 0 ? 0 : ReadU64At(data, at);
    }
    case ins::MessageType::kEarlyBindingResponse:
      return ReadU64At(data, 1);
    default:
      return 0;
  }
}

void TracingTransport::SetReceiveHandler(ReceiveHandler handler) {
  handler_ = std::move(handler);
  inner_->SetReceiveHandler(
      [this](const ins::NodeAddress& source, const ins::Bytes& data) { OnReceive(source, data); });
}

void TracingTransport::OnReceive(const ins::NodeAddress& source, const ins::Bytes& data) {
  SpanRecorder& r = *rec_;
  if (!r.recording) {
    handler_(source, data);
    return;
  }
  const uint8_t kind = KindOf(data) % SpanRecorder::kKinds;
  r.Reserve();
  if (r.inbound[kind].size() < SpanRecorder::kMaxCapturePerKind) {
    r.inbound[kind].push_back(data);
  }
  const int64_t start = NowNs();
  const uint32_t span = r.Open(SpanName::kRecv, kind, RequestIdOf(data), start);
  const uint32_t outer = r.current;
  r.current = span;
  r.in_recv = true;
  r.recv_kind = kind;
  r.recv_send_ns = 0;
  r.recv_sends = 0;
  handler_(source, data);
  const int64_t end = NowNs();
  r.Close(span, end);
  r.current = outer;
  r.in_recv = false;
  KindStats& ks = r.recv[kind];
  ks.count += 1;
  ks.total_ns += end - start;
  ks.child_send_ns += r.recv_send_ns;
  ks.child_sends += r.recv_sends;
  ks.self_ns.push_back(static_cast<uint32_t>(std::max<int64_t>(0, end - start - r.recv_send_ns)));
}

ins::Status TracingTransport::Send(const ins::NodeAddress& destination, const ins::Bytes& data) {
  SpanRecorder& r = *rec_;
  if (!r.recording) {
    return inner_->Send(destination, data);
  }
  const uint8_t kind = KindOf(data) % SpanRecorder::kKinds;
  if (r.outbound[kind].size() < SpanRecorder::kMaxCapturePerKind) {
    r.outbound[kind].push_back(data);
  }
  const int64_t start = NowNs();
  const uint32_t span = r.Open(SpanName::kSend, kind, RequestIdOf(data), start);
  ins::Status status = inner_->Send(destination, data);
  const int64_t end = NowNs();
  r.Close(span, end);
  r.sends += 1;
  r.send_ns.push_back(static_cast<uint32_t>(end - start));
  if (r.in_recv) {
    r.recv_send_ns += end - start;
    r.recv_sends += 1;
    r.sent_while[r.recv_kind][kind] += 1;
  }
  return status;
}

ins::TaskId TracingExecutor::ScheduleAt(ins::TimePoint when, std::function<void()> fn) {
  return inner_->ScheduleAt(when, [rec = rec_, fn = std::move(fn)] {
    SpanRecorder& r = *rec;
    if (!r.recording) {
      fn();
      return;
    }
    const int64_t start = NowNs();
    const uint32_t span = r.Open(SpanName::kTimer, 0, 0, start);
    const uint32_t outer = r.current;
    r.current = span;
    fn();
    const int64_t end = NowNs();
    r.Close(span, end);
    r.current = outer;
    r.timer_runs += 1;
    r.timer_ns_total += end - start;
    r.timer_ns_max = std::max(r.timer_ns_max, end - start);
  });
}

}  // namespace perfbench
