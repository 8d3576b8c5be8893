// Spans recorded from outside a resolver.
//
// An Inr reaches the network only through its Transport and time only through
// its Executor, so wrapping both is enough to see every datagram it handles
// and every timer it runs without touching the program. The wrappers live on
// the resolver's own thread; the generator flips `recording` and reads the
// results only through LoopThread::Call or after the thread has been joined.
//
// A receive span covers the resolver's whole handler for one datagram; the
// Transport::Send calls it makes are child spans, so its self time is the
// handler minus the sends. Timer spans cover one executor callback and are
// the parents of whatever that callback sends.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "ins/common/executor.h"
#include "ins/common/transport.h"
#include "ins/transport/real_event_loop.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanName : uint8_t { kRecv, kSend, kTimer };

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request_id = 0;  // op id at the head of the payload; 0 if none
  uint32_t parent = kNoParent;
  SpanName name = SpanName::kRecv;
  uint8_t kind = 0;  // envelope message type of the datagram
  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
};

// Envelope type byte, as PROTOCOL.md lays it out: the first byte of every
// datagram. 0 for an empty datagram.
inline uint8_t KindOf(const ins::Bytes& data) { return data.empty() ? 0 : data[0]; }

// The op id the generator writes at the head of every data payload, and that
// an early-binding answer echoes as its first field. Reads the documented
// wire layout (envelope type, u32 packet length, Figure-10 header whose
// data pointer sits at offset 16); 0 for any other datagram.
uint64_t RequestIdOf(const ins::Bytes& data);

// Offset of the payload of a kData datagram; 0 if `data` is not one.
size_t PayloadOffsetOf(const ins::Bytes& data);

struct KindStats {
  uint64_t count = 0;
  int64_t total_ns = 0;       // whole receive spans
  int64_t child_send_ns = 0;  // Transport::Send spans inside them
  uint64_t child_sends = 0;
  std::vector<uint32_t> self_ns;
};

struct SpanRecorder {
  static constexpr size_t kMaxSpans = 200000;
  static constexpr size_t kMaxCapturePerKind = 20000;
  static constexpr size_t kKinds = 64;
  static constexpr size_t kExpectedDatagrams = 1 << 21;

  bool recording = false;

  std::array<KindStats, kKinds> recv;
  uint64_t sends = 0;
  std::vector<uint32_t> send_ns;
  uint64_t timer_runs = 0;
  int64_t timer_ns_total = 0;
  int64_t timer_ns_max = 0;
  std::vector<Span> spans;
  // Datagrams seen in the recording window, kept for the replay.
  std::array<std::vector<ins::Bytes>, kKinds> inbound;
  std::array<std::vector<ins::Bytes>, kKinds> outbound;
  // Outbound datagrams sent while handling each inbound kind: the replay
  // charges their encode cost to that kind.
  std::array<std::array<uint64_t, kKinds>, kKinds> sent_while;

  SpanRecorder() { sent_while = {}; }

  // Sizes the sample buffers once, on the first recorded datagram, so a
  // recording window does not reallocate them.
  void Reserve() {
    if (spans.capacity() == 0) {
      spans.reserve(kMaxSpans);
      send_ns.reserve(kExpectedDatagrams);
      recv[1].self_ns.reserve(kExpectedDatagrams);  // data, by far the most
    }
  }

  uint32_t Open(SpanName name, uint8_t kind, uint64_t request_id, int64_t start_ns) {
    uint32_t index = Span::kNoParent;
    if (spans.size() < kMaxSpans) {
      index = static_cast<uint32_t>(spans.size());
      spans.push_back({start_ns, 0, request_id, current, name, kind});
    }
    return index;
  }
  void Close(uint32_t index, int64_t end_ns) {
    if (index != Span::kNoParent) {
      spans[index].end_ns = end_ns;
    }
  }

  // Innermost open receive/timer span, the parent of any send.
  uint32_t current = Span::kNoParent;
  // Accumulators of the receive span in progress.
  bool in_recv = false;
  uint8_t recv_kind = 0;
  int64_t recv_send_ns = 0;
  uint64_t recv_sends = 0;
};

class TracingTransport : public ins::Transport {
 public:
  TracingTransport(ins::Transport* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  ins::Status Send(const ins::NodeAddress& destination, const ins::Bytes& data) override;
  void SetReceiveHandler(ReceiveHandler handler) override;
  ins::NodeAddress local_address() const override { return inner_->local_address(); }
  void AttachMetrics(ins::MetricsRegistry* metrics) override { inner_->AttachMetrics(metrics); }
  void OnLoadSignal(ins::Duration load) override { inner_->OnLoadSignal(load); }

 private:
  void OnReceive(const ins::NodeAddress& source, const ins::Bytes& data);

  ins::Transport* inner_;
  SpanRecorder* rec_;
  ReceiveHandler handler_;
};

class TracingExecutor : public ins::Executor {
 public:
  TracingExecutor(ins::RealEventLoop* inner, SpanRecorder* rec) : inner_(inner), rec_(rec) {}

  ins::TaskId ScheduleAt(ins::TimePoint when, std::function<void()> fn) override;
  bool Cancel(ins::TaskId id) override { return inner_->Cancel(id); }
  ins::TimePoint Now() const override { return inner_->Now(); }

 private:
  ins::RealEventLoop* inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
