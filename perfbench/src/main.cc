// End-to-end benchmark of INS over real loopback sockets.
//
// One process, three threads: two resolvers (ingress `a`, egress `b`), each
// an Inr with the default InrConfig on its own RealEventLoop and
// BatchedUdpTransport, and the generator thread, which hosts the DSR, the
// client socket and the sinks and blocks in epoll between events. The
// generator keeps a fixed number of ops outstanding (a closed loop: INS
// clients wait for their reply), checks every answer against an oracle built
// from the reference matcher, and reports the metrics README.md defines.
//
//   ins_e2e_bench --workload anycast|resolve|churn --seed N --seconds T --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the window twice,
// the second time with the span-recording wrappers on, and prints the
// per-layer metrics. The last line of stdout is one JSON object.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "corpus.h"
#include "ins/inr/forwarding.h"
#include "ins/inr/inr.h"
#include "ins/overlay/dsr.h"
#include "ins/transport/batched_udp_transport.h"
#include "ins/transport/factory.h"
#include "ins/wire/messages.h"
#include "loop_thread.h"
#include "replay.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {
namespace {

// Above the fixed ports the repository's own programs bind (quickstart 15800+,
// realnet test 44210+, UDP bench 46100+); probe-binding skips anything taken.
constexpr uint32_t kPortSearchStart = 47000;
constexpr uint32_t kPortSearchEnd = 61000;
constexpr uint16_t kPortsPerDeployment = 4 + kSinks;  // DSR, a, b, client, sinks
// Closed-loop depth: ops outstanding at any time.
constexpr size_t kOutstanding = 64;
// setup_s is the median of this many complete set-ups; the last one is measured.
constexpr int kSetups = 7;
// Reads run this long before a set-up counts as done; a fixed time, because
// how fast the closed loop settles into full transmit batches varies.
constexpr int64_t kWarmupNs = 300'000'000;
// b's full refresh period (DiscoveryConfig::update_interval by default);
// windows start at a fixed phase of it.
constexpr int64_t kRefreshNs = 15'000'000'000;
// Churn writes run this long before the window, so the store holds a steady
// population of short-lived names when measuring starts.
constexpr int64_t kChurnLeadNs = 7'000'000'000;
constexpr int64_t kOpTimeoutNs = 1'000'000'000;
constexpr int64_t kSliceNs = 1'000'000'000;
// A window in which the hypervisor took more than this much CPU time per
// second (summed over all CPUs) measured the neighbours, not the resolvers.
// It is marked INVALID in the report but still gives the result: measuring
// again would make a run's length depend on the host, and on a busy host the
// next window is as likely to be stolen.
constexpr int64_t kMaxStealMsPerS = 100;
constexpr int64_t kDrainNs = 1'000'000'000;
constexpr uint32_t kStableLifetimeS = 600;
constexpr uint32_t kFreshLifetimeS = 2;
// Advertisements in flight during set-up, far below what the 4 MiB socket
// buffers the transports ask for can hold.
constexpr size_t kAdvertiseWindow = 512;
constexpr size_t kPayloadBytes = 64;
constexpr size_t kMaxPrintedFailures = 20;
// Latency samples a window can hold without regrowing. Reserved up front, so
// the memory they take grows with the op count instead of stepping when the
// vector doubles; pages never written take none.
constexpr size_t kLatencyReserve = size_t{1} << 23;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
        have[2] = args.seconds > 0;
      } else if (flag == "--trace") {
        args.trace = value == "1";
        have[3] = value == "0" || value == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have[0] || !have[1] || !have[2] || !have[3]) {
    return std::nullopt;
  }
  return args;
}

// Finds `count` consecutive loopback UDP ports nobody holds, by binding them.
uint16_t FindFreePortBlock(size_t count) {
  for (uint32_t base = kPortSearchStart; base + count <= kPortSearchEnd; base += 64) {
    std::vector<int> fds;
    bool free = true;
    for (size_t i = 0; i < count && free; ++i) {
      const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
      }
      fds.push_back(fd);
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_port = htons(static_cast<uint16_t>(base + i));
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      free = bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0;
    }
    for (int fd : fds) {
      close(fd);
    }
    if (free) {
      return static_cast<uint16_t>(base);
    }
  }
  throw std::runtime_error("no free block of loopback ports");
}

// Steal time of all CPUs so far, in ms: time the hypervisor ran something
// else while this machine's vCPUs were runnable. 0 where it is not reported.
int64_t StealMs() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t field = 0;
  int64_t steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    steal = field;  // user nice system idle iowait irq softirq steal
  }
  return steal * 1000 / sysconf(_SC_CLK_TCK);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

std::unique_ptr<ins::BatchedUdpTransport> BindLocal(ins::RealEventLoop& loop, uint32_t host,
                                                    uint16_t port,
                                                    const ins::BatchedUdpConfig& config = {}) {
  auto t = ins::BatchedUdpTransport::Bind(&loop, ins::MakeAddress(host, port), config);
  if (!t.ok()) {
    throw std::runtime_error("bind port " + std::to_string(port) + ": " + t.status().ToString());
  }
  return std::move(*t);
}

// One resolver on its own thread. With tracing, the Inr sees the network and
// its timers through the span-recording wrappers.
struct Resolver {
  Resolver(uint32_t host, uint16_t port, const ins::NodeAddress& dsr, bool trace) {
    auto t = ins::MakeRealTransport(ins::TransportKind::kBatchedUdp, &thread.loop(),
                                    ins::MakeAddress(host, port));
    if (!t.ok()) {
      throw std::runtime_error("bind port " + std::to_string(port) + ": " + t.status().ToString());
    }
    transport = std::move(*t);
    ins::Transport* net = transport.get();
    ins::Executor* clock = &thread.loop();
    if (trace) {
      rec = std::make_unique<SpanRecorder>();
      traced_transport = std::make_unique<TracingTransport>(net, rec.get());
      traced_executor = std::make_unique<TracingExecutor>(&thread.loop(), rec.get());
      net = traced_transport.get();
      clock = traced_executor.get();
    }
    ins::InrConfig config;
    config.dsr = dsr;
    inr = std::make_unique<ins::Inr>(clock, net, config);
    inr->discovery().on_name_discovered = [this](const std::string&, const ins::NameSpecifier&,
                                                 const ins::NameRecord& record) {
      if (record.announcer.discriminator >= kFreshBase) {
        discovered.emplace_back(record.announcer.discriminator - kFreshBase, NowNs());
      }
    };
  }
  // The Inr outlives its thread: it stops (on this thread) only after the
  // loop has been joined.
  ~Resolver() { thread.StopAndJoin(); }
  Resolver(const Resolver&) = delete;
  Resolver& operator=(const Resolver&) = delete;

  void Start() {
    thread.Post([this] {
      started_ns = NowNs();
      inr->Start();
    });
    thread.Start();
  }
  size_t RecordCount() {
    return thread.Call([this] { return inr->vspaces().store().RecordCount(""); });
  }

  LoopThread thread;
  std::unique_ptr<ins::Transport> transport;
  std::unique_ptr<SpanRecorder> rec;
  std::unique_ptr<TracingTransport> traced_transport;
  std::unique_ptr<TracingExecutor> traced_executor;
  std::unique_ptr<ins::Inr> inr;
  int64_t started_ns = 0;
  // (fresh index, time) of every fresh name grafted here.
  std::vector<std::pair<uint32_t, int64_t>> discovered;
};

struct Deployment {
  Deployment(ins::RealEventLoop& loop, uint16_t base, bool trace) {
    dsr_transport = BindLocal(loop, 250, base);
    dsr = std::make_unique<ins::Dsr>(&loop, dsr_transport.get());
    client = BindLocal(loop, 200, static_cast<uint16_t>(base + 3));
    // Sinks only receive: a small transmit ring keeps their memory out of
    // peak_rss_mb.
    ins::BatchedUdpConfig sink_config;
    sink_config.max_queue = sink_config.batch_size;
    for (uint32_t i = 0; i < kSinks; ++i) {
      sinks.push_back(BindLocal(loop, 100 + i, static_cast<uint16_t>(base + 4 + i), sink_config));
    }
    a = std::make_unique<Resolver>(1, static_cast<uint16_t>(base + 1),
                                   dsr_transport->local_address(), trace);
    b = std::make_unique<Resolver>(2, static_cast<uint16_t>(base + 2),
                                   dsr_transport->local_address(), trace);
  }

  std::unique_ptr<ins::BatchedUdpTransport> dsr_transport;
  std::unique_ptr<ins::Dsr> dsr;
  std::unique_ptr<ins::BatchedUdpTransport> client;
  std::vector<std::unique_ptr<ins::BatchedUdpTransport>> sinks;
  std::unique_ptr<Resolver> a;
  std::unique_ptr<Resolver> b;
};

// One second of a window, printed so that a disturbed stretch shows.
struct Slice {
  int64_t end_ns = 0;
  uint64_t completed = 0;
  int64_t steal_ms = 0;  // CPU time the hypervisor took, all CPUs
};

// What one measured window saw from the generator's side.
struct WindowStats {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;  // correct completions inside the window
  uint64_t failed = 0;     // lost, unanswered or wrong (ops sent in the window)
  std::vector<uint32_t> latency_ns;  // correct completions of ops sent in the window
  std::vector<Slice> slices;
  std::vector<uint32_t> write_lateness_ns;
};

// The closed-loop client, the sinks and the write schedule, all on the
// generator thread.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, const Corpus& corpus, ins::RealEventLoop& loop,
            Deployment& d)
      : spec_(spec),
        corpus_(corpus),
        loop_(loop),
        d_(d),
        slots_(kOutstanding),
        versions_(corpus.records.size(), 1),
        fresh_sent_ns_(corpus.fresh.size(), 0),
        fresh_window_(corpus.fresh.size(), nullptr) {
    // Each query's request is encoded once; Issue() patches in the op id and
    // the envelope checksum.
    for (uint32_t i = 0; i < corpus_.queries.size(); ++i) {
      ins::Packet p;
      p.destination_name = corpus_.queries[i].text;
      if (spec_.early_binding) {
        p.early_binding = true;
        p.payload = ins::EncodeEarlyBindingPayload(0, d_.client->local_address());
      } else {
        ins::ByteWriter w;
        w.WriteU64(0);
        w.WriteU32(i);
        while (w.size() < kPayloadBytes) {
          w.WriteU8(static_cast<uint8_t>(w.size()));
        }
        p.payload = std::move(w).TakeBytes();
      }
      requests_.push_back(ins::Encode(std::move(p)));
    }
    d_.client->SetReceiveHandler(
        [this](const ins::NodeAddress&, const ins::Bytes& data) { OnAnswer(data); });
    for (uint32_t i = 0; i < kSinks; ++i) {
      d_.sinks[i]->SetReceiveHandler(
          [this, i](const ins::NodeAddress&, const ins::Bytes& data) { OnDelivery(i, data); });
    }
    ScheduleTimeoutCheck();
  }
  ~Generator() {
    loop_.Cancel(timeout_task_);
    loop_.Cancel(write_task_);
    loop_.Cancel(flush_task_);
    d_.client->SetReceiveHandler(nullptr);
    for (auto& sink : d_.sinks) {
      sink->SetReceiveHandler(nullptr);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void AdvertiseStable(uint32_t id) {
    const Record& r = corpus_.records[id];
    Advertise(id, r, r.metric, kStableLifetimeS, versions_[id]);
  }

  void StartLoad() {
    load_on_ = true;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy) {
        Issue(i);
      }
    }
  }
  void StopLoad() { load_on_ = false; }
  uint64_t failures() const { return failures_; }
  uint64_t stale() const { return stale_; }
  uint64_t wrong() const { return wrong_; }
  uint64_t lost() const { return lost_; }

  // Starts sending the corpus's write schedule, its offsets counted from
  // `start_ns`.
  void StartWrites(int64_t start_ns) {
    writes_start_ns_ = start_ns;
    next_write_ = 0;
    writes_on_ = true;
    write_task_ = loop_.ScheduleAfter(ins::Microseconds(0), [this] { WriteTick(); });
  }
  void StopWrites() { writes_on_ = false; }

  WindowStats& OpenWindow() {
    windows_.push_back(std::make_unique<WindowStats>());
    window_ = windows_.back().get();
    window_->start_ns = NowNs();
    window_->latency_ns.reserve(kLatencyReserve);
    window_->slices.emplace_back();
    return *window_;
  }
  void NextSlice() { window_->slices.emplace_back(); }
  void CloseWindow() {
    window_->end_ns = NowNs();
    window_ = nullptr;
  }

  // Grafts of fresh names at `a`: returns discovery samples for every fresh
  // name sent while `window` was open (or, with nullptr, for every one sent
  // at all). Any fresh name sent and never grafted counts as a failed op of
  // the window it was sent in.
  std::vector<uint32_t> DiscoveryNs(const std::vector<std::pair<uint32_t, int64_t>>& grafted,
                                    const WindowStats* window) {
    std::vector<int64_t> at(corpus_.fresh.size(), 0);
    for (const auto& [index, ns] : grafted) {
      if (index < at.size() && at[index] == 0) {
        at[index] = ns;
      }
    }
    std::vector<uint32_t> samples;
    for (size_t i = 0; i < at.size(); ++i) {
      if (fresh_sent_ns_[i] == 0) {
        continue;
      }
      if (at[i] == 0) {
        if (fresh_window_[i] != nullptr) {
          fresh_window_[i]->failed += 1;
        }
        Fail("fresh name never grafted at a: " + corpus_.fresh[i].text);
      } else if (window == nullptr || fresh_window_[i] == window) {
        samples.push_back(static_cast<uint32_t>(at[i] - fresh_sent_ns_[i]));
      }
    }
    return samples;
  }

  // Ops still outstanding are lost.
  void AbandonOutstanding() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].busy) {
        Lose(i);
      }
    }
  }

 private:
  struct Slot {
    uint64_t op = 0;
    uint32_t query = 0;
    int64_t sent_ns = 0;
    bool busy = false;
    WindowStats* window = nullptr;
  };

  bool churn() const { return spec_.churn; }
  ins::NodeAddress SinkAddress(uint32_t sink) const { return d_.sinks[sink]->local_address(); }

  void Advertise(uint32_t id, const Record& r, double metric, uint32_t lifetime_s,
                 uint64_t version) {
    ins::Advertisement ad;
    ad.name_text = r.text;
    ad.announcer = ins::AnnouncerId{kAnnouncerIp, 1, id};
    ad.endpoint = EndpointFor(id, SinkAddress(r.sink));
    ad.app_metric = metric;
    ad.lifetime_s = lifetime_s;
    ad.version = version;
    SendOrFail(d_.b->inr->address(), ins::Encode(std::move(ad)), "advertisement");
  }

  void SendOrFail(const ins::NodeAddress& to, const ins::Bytes& bytes, const char* what) {
    ins::Status s = d_.client->Send(to, bytes);
    if (!s.ok()) {
      throw std::runtime_error(std::string("client send of ") + what + " failed: " + s.ToString());
    }
  }

  void Issue(size_t slot) {
    Slot& s = slots_[slot];
    s.query = corpus_.draws[draw_++ % corpus_.draws.size()];
    s.op = (++op_counter_ << 8) | slot;
    s.busy = true;
    s.window = window_;
    s.sent_ns = NowNs();
    if (window_ != nullptr) {
      window_->attempted += 1;
    }
    scratch_ = requests_[s.query];
    const size_t at = PayloadOffsetOf(scratch_);
    for (int byte = 0; byte < 8; ++byte) {
      scratch_[at + byte] = static_cast<uint8_t>(s.op >> (56 - 8 * byte));
    }
    const size_t body = scratch_.size() - 4;
    const uint32_t sum = ins::EnvelopeChecksum(scratch_.data(), body);
    for (int byte = 0; byte < 4; ++byte) {
      scratch_[body + byte] = static_cast<uint8_t>(sum >> (24 - 8 * byte));
    }
    SendOrFail(d_.a->inr->address(), scratch_, "request");
    // Flush once the current batch of events has been handled, instead of
    // leaving partial batches to the client transport's coalescing timer.
    if (flush_task_ == ins::kInvalidTaskId) {
      flush_task_ = loop_.ScheduleAt(loop_.Now(), [this] {
        flush_task_ = ins::kInvalidTaskId;
        d_.client->FlushNow();
      });
    }
  }

  // The slot whose current op is `op`, or nullptr for a stale or foreign id.
  Slot* SlotOf(uint64_t op) {
    const size_t slot = op & 0xff;
    if (slot >= slots_.size() || !slots_[slot].busy || slots_[slot].op != op) {
      ++stale_;
      return nullptr;
    }
    return &slots_[slot];
  }

  void OnDelivery(uint32_t sink, const ins::Bytes& data) {
    auto env = ins::DecodeMessage(data);
    if (!env.ok() || !std::holds_alternative<ins::Packet>(env->body)) {
      Wrong("sink " + std::to_string(sink) + " received an undecodable datagram");
      return;
    }
    const ins::Packet& p = std::get<ins::Packet>(env->body);
    ins::ByteReader r(p.payload);
    auto op = r.ReadU64();
    auto query = r.ReadU32();
    if (!op.ok() || !query.ok()) {
      Wrong("sink " + std::to_string(sink) + " received a truncated payload");
      return;
    }
    Slot* s = SlotOf(*op);
    if (s == nullptr) {
      return;
    }
    const Query& q = corpus_.queries[s->query];
    bool ok = *query == s->query && p.destination_name == q.text && p.payload.size() == kPayloadBytes;
    if (!ok) {
      Wrong("payload or destination altered in flight for query " + q.text);
    } else if (churn() ? ((q.sink_mask >> sink) & 1) == 0 : sink != q.expected_sink) {
      ok = false;
      Wrong("query " + q.text + " delivered to sink " + std::to_string(sink) + ", oracle says " +
           (churn() ? "a matching record's sink" : "sink " + std::to_string(q.expected_sink)));
    }
    Complete(*s, ok);
  }

  void OnAnswer(const ins::Bytes& data) {
    auto env = ins::DecodeMessage(data);
    if (!env.ok() || !std::holds_alternative<ins::EarlyBindingResponse>(env->body)) {
      Wrong("client received an unexpected datagram");
      return;
    }
    const auto& resp = std::get<ins::EarlyBindingResponse>(env->body);
    Slot* s = SlotOf(resp.request_id);
    if (s == nullptr) {
      return;
    }
    std::vector<uint32_t> ids;
    for (const auto& item : resp.items) {
      ids.push_back(RecordIdOf(item.endpoint));
    }
    std::sort(ids.begin(), ids.end());
    const Query& q = corpus_.queries[s->query];
    const bool ok = ids == q.matches;
    if (!ok) {
      Wrong("query " + q.text + " answered with " + std::to_string(ids.size()) +
           " records, oracle says " + std::to_string(q.matches.size()));
    }
    Complete(*s, ok);
  }

  void Complete(Slot& s, bool ok) {
    const int64_t now = NowNs();
    if (s.window != nullptr) {
      if (ok) {
        s.window->latency_ns.push_back(static_cast<uint32_t>(now - s.sent_ns));
      } else {
        s.window->failed += 1;
      }
    }
    if (ok && window_ != nullptr) {
      window_->completed += 1;
      window_->slices.back().completed += 1;
    }
    s.busy = false;
    if (load_on_) {
      Issue(static_cast<size_t>(&s - slots_.data()));
    }
  }

  void Lose(size_t slot) {
    Slot& s = slots_[slot];
    ++lost_;
    if (s.window != nullptr) {
      s.window->failed += 1;
    }
    Fail("op lost, query " + corpus_.queries[s.query].text);
    s.busy = false;
  }

  void Fail(const std::string& what) {
    if (failures_++ < kMaxPrintedFailures) {
      std::cout << "FAILED: " << what << "\n";
    }
  }
  // A datagram that contradicts the oracle, as opposed to one that never came.
  void Wrong(const std::string& what) {
    ++wrong_;
    Fail(what);
  }

  void ScheduleTimeoutCheck() {
    timeout_task_ = loop_.ScheduleAfter(ins::Milliseconds(100), [this] {
      const int64_t now = NowNs();
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].busy && now - slots_[i].sent_ns > kOpTimeoutNs) {
          Lose(i);
        }
        if (!slots_[i].busy && load_on_) {
          Issue(i);
        }
      }
      ScheduleTimeoutCheck();
    });
  }

  void WriteTick() {
    write_task_ = ins::kInvalidTaskId;
    if (!writes_on_) {
      return;
    }
    const int64_t now = NowNs();
    while (next_write_ < corpus_.writes.size()) {
      const Write& w = corpus_.writes[next_write_];
      const int64_t due = writes_start_ns_ + w.due_ns;
      if (due > now) {
        break;
      }
      if (w.fresh) {
        fresh_sent_ns_[w.index] = now;
        fresh_window_[w.index] = window_;
        if (window_ != nullptr) {
          window_->attempted += 1;
        }
        Advertise(kFreshBase + w.index, corpus_.fresh[w.index], w.metric, kFreshLifetimeS, 1);
      } else {
        Advertise(w.index, corpus_.records[w.index], w.metric, kStableLifetimeS,
                  ++versions_[w.index]);
      }
      if (window_ != nullptr) {
        window_->write_lateness_ns.push_back(static_cast<uint32_t>(now - due));
      }
      ++next_write_;
    }
    // Advertisements leave now: discovery time starts at the send.
    d_.client->FlushNow();
    if (next_write_ < corpus_.writes.size()) {
      write_task_ = loop_.ScheduleAfter(ins::Milliseconds(1), [this] { WriteTick(); });
    }
  }

  const WorkloadSpec& spec_;
  const Corpus& corpus_;
  ins::RealEventLoop& loop_;
  Deployment& d_;
  std::vector<Slot> slots_;
  std::vector<ins::Bytes> requests_;  // encoded request per query, op id 0
  ins::Bytes scratch_;
  std::vector<uint64_t> versions_;
  std::vector<int64_t> fresh_sent_ns_;
  std::vector<WindowStats*> fresh_window_;
  std::vector<std::unique_ptr<WindowStats>> windows_;
  WindowStats* window_ = nullptr;
  bool load_on_ = false;
  bool writes_on_ = false;
  size_t draw_ = 0;
  uint64_t op_counter_ = 0;
  uint64_t failures_ = 0;
  uint64_t wrong_ = 0;
  uint64_t lost_ = 0;
  uint64_t stale_ = 0;
  size_t next_write_ = 0;
  int64_t writes_start_ns_ = 0;
  ins::TaskId timeout_task_ = ins::kInvalidTaskId;
  ins::TaskId write_task_ = ins::kInvalidTaskId;
  ins::TaskId flush_task_ = ins::kInvalidTaskId;
};

void RunUntil(ins::RealEventLoop& loop, int64_t deadline_ns) {
  for (int64_t now = NowNs(); now < deadline_ns; now = NowNs()) {
    loop.RunFor(ins::Microseconds(std::min<int64_t>((deadline_ns - now) / 1000 + 1, 50000)));
  }
}

template <typename Pred>
void WaitFor(ins::RealEventLoop& loop, int64_t timeout_ns, const std::string& what, Pred done) {
  const int64_t deadline = NowNs() + timeout_ns;
  while (!done()) {
    if (NowNs() > deadline) {
      throw std::runtime_error("timed out waiting for " + what);
    }
    loop.RunFor(ins::Milliseconds(1));
  }
}

// Joins both resolvers, advertises the stable names at b, waits until both
// stores hold all of them, then warms up with the workload's own reads.
// Returns a breakdown of where the time went.
std::string SetUp(Deployment& d, Generator& gen, ins::RealEventLoop& loop, size_t names) {
  constexpr int64_t kSecond = 1'000'000'000;
  std::string phases;
  int64_t mark = NowNs();
  auto phase = [&](const char* what) {
    const int64_t now = NowNs();
    phases += std::string(phases.empty() ? "" : ", ") + what + " " +
              std::to_string((now - mark) / 1000000) + " ms";
    mark = now;
  };
  d.a->Start();
  WaitFor(loop, 20 * kSecond, "a to join the overlay",
          [&] { return d.a->thread.Call([&] { return d.a->inr->topology().joined(); }); });
  d.b->Start();
  WaitFor(loop, 20 * kSecond, "b to peer with a", [&] {
    return d.b->thread.Call([&] { return d.b->inr->topology().joined(); }) &&
           d.a->thread.Call([&] { return !d.a->inr->topology().NeighborAddresses().empty(); });
  });
  phase("join");
  // Flow control on the downstream store: b grafts each advertisement and
  // forwards it to a as a triggered update, so bounding what a has not yet
  // grafted bounds both socket queues.
  size_t sent = 0;
  size_t at_a = 0;
  int64_t progress_ns = NowNs();
  while (at_a < names) {
    while (sent < names && sent < at_a + kAdvertiseWindow) {
      gen.AdvertiseStable(static_cast<uint32_t>(sent++));
    }
    loop.RunFor(ins::Milliseconds(1));
    const size_t count = d.a->RecordCount();
    if (count != at_a) {
      at_a = count;
      progress_ns = NowNs();
    } else if (NowNs() - progress_ns > 2 * kSecond) {
      throw std::runtime_error("advertisements lost on the way to a: " + std::to_string(at_a) +
                               " of " + std::to_string(sent) + " grafted");
    }
  }
  phase("advertise");
  WaitFor(loop, 10 * kSecond, "all names at b", [&] { return d.b->RecordCount() >= names; });
  gen.StartLoad();
  RunUntil(loop, NowNs() + kWarmupNs);
  phase("warm-up");
  return phases;
}

struct ResolverSnap {
  int64_t cpu_ns = 0;
  std::map<std::string, uint64_t> counters;
  ins::Histogram batch_fill;
  ins::PostingIndexStats index;
};

const char* const kTransportCounters[] = {
    "transport.send.datagrams", "transport.recv.datagrams", "transport.send.batches",
    "transport.recv.batches",   "transport.send.write_blocked", "transport.drop.backpressure",
    "transport.drop.error",     "transport.drop.oversize",
};

ResolverSnap Snap(Resolver& r, std::optional<bool> recording) {
  ResolverSnap s;
  r.thread.Call([&] {
    const ins::MetricsRegistry& m = r.inr->metrics();
    for (const char* name : kTransportCounters) {
      s.counters[name] = m.Counter(name);
    }
    uint64_t drops = 0;
    for (const char* reason : ins::kForwardingDropReasonNames) {
      drops += m.Counter(std::string("forwarding.drop.") + reason);
    }
    s.counters["forwarding.drops"] = drops;
    s.batch_fill = m.HistogramOf("transport.send.batch_fill");
    s.index = r.inr->vspaces().store().IndexStatsTotal();
    if (recording.has_value() && r.rec != nullptr) {
      r.rec->recording = *recording;
    }
  });
  s.cpu_ns = r.thread.CpuNs();
  return s;
}

// Window deltas of one resolver.
struct ResolverWindow {
  double busy_frac = 0;
  int64_t cpu_ns = 0;
  std::map<std::string, uint64_t> delta;
  double batch_fill_p50 = 0;
  uint64_t plan_hits = 0, plan_lookups = 0, fallbacks = 0, lookups = 0;
};

// p50 of the samples recorded between two copies of a log2-bucket histogram.
double HistogramDeltaP50(const ins::Histogram& before, const ins::Histogram& after) {
  uint64_t total = 0;
  std::array<uint64_t, ins::Histogram::kBucketCount> d{};
  for (size_t b = 0; b < d.size(); ++b) {
    d[b] = after.bucket_counts()[b] - before.bucket_counts()[b];
    total += d[b];
  }
  uint64_t seen = 0;
  for (size_t b = 0; b < d.size(); ++b) {
    seen += d[b];
    if (total > 0 && seen * 2 >= total) {
      return (static_cast<double>(ins::Histogram::BucketLow(b)) +
              static_cast<double>(ins::Histogram::BucketHigh(b))) / 2;
    }
  }
  return 0;
}

ResolverWindow Delta(const ResolverSnap& s0, const ResolverSnap& s1, int64_t wall_ns) {
  ResolverWindow w;
  w.cpu_ns = s1.cpu_ns - s0.cpu_ns;
  w.busy_frac = Ratio(static_cast<double>(w.cpu_ns), static_cast<double>(wall_ns));
  for (const auto& [name, v] : s1.counters) {
    w.delta[name] = v - s0.counters.at(name);
  }
  w.batch_fill_p50 = HistogramDeltaP50(s0.batch_fill, s1.batch_fill);
  w.plan_hits = s1.index.plan_hits - s0.index.plan_hits;
  w.plan_lookups = w.plan_hits + (s1.index.plan_misses - s0.index.plan_misses);
  w.fallbacks = s1.index.TotalFallbacks() - s0.index.TotalFallbacks();
  w.lookups = s1.index.TotalLookups() - s0.index.TotalLookups();
  return w;
}

// The end-to-end figures of one window, each over the whole window.
struct Window {
  WindowStats* stats = nullptr;
  double seconds = 0;
  double gen_busy_frac = 0;
  int64_t steal_ms = 0;
  ResolverWindow a, b;

  double throughput() const { return static_cast<double>(stats->completed) / seconds; }
  double cpu_us_per_op() const {
    return Ratio(static_cast<double>(a.cpu_ns + b.cpu_ns) / 1000.0,
                 static_cast<double>(stats->completed));
  }
  Dist latency_ns() const {
    std::vector<uint32_t> v = stats->latency_ns;
    return Summarize(v);
  }
  double steal_ms_per_s() const { return static_cast<double>(steal_ms) / seconds; }
  // Why the window cannot stand for the resolvers, or "" if it can.
  std::string invalid_reason() const {
    if (gen_busy_frac >= std::max(a.busy_frac, b.busy_frac)) {
      return "the generator was the busiest thread";
    }
    if (steal_ms_per_s() > kMaxStealMsPerS) {
      return "steal above " + std::to_string(kMaxStealMsPerS) + " ms/s";
    }
    return "";
  }
};

Window MeasureWindow(Deployment& d, Generator& gen, ins::RealEventLoop& loop, int64_t open_ns,
                     int64_t length_ns, bool record) {
  RunUntil(loop, open_ns);
  const ResolverSnap a0 = Snap(*d.a, record);
  const ResolverSnap b0 = Snap(*d.b, record);
  const int64_t gen0 = ThreadCpuNs();
  Window w;
  w.stats = &gen.OpenWindow();
  const int64_t slices = std::max<int64_t>(1, length_ns / kSliceNs);
  int64_t steal = StealMs();
  for (int64_t k = 1; k <= slices; ++k) {
    RunUntil(loop, w.stats->start_ns + length_ns * k / slices);
    const int64_t now_steal = StealMs();
    Slice& slice = w.stats->slices.back();
    slice.end_ns = NowNs();
    slice.steal_ms = now_steal - steal;
    w.steal_ms += slice.steal_ms;
    steal = now_steal;
    if (k < slices) {
      gen.NextSlice();
    }
  }
  gen.CloseWindow();
  const int64_t gen1 = ThreadCpuNs();
  const ResolverSnap a1 = Snap(*d.a, record ? std::optional<bool>(false) : std::nullopt);
  const ResolverSnap b1 = Snap(*d.b, record ? std::optional<bool>(false) : std::nullopt);
  const int64_t wall = w.stats->end_ns - w.stats->start_ns;
  w.seconds = static_cast<double>(wall) / 1e9;
  w.gen_busy_frac = Ratio(static_cast<double>(gen1 - gen0), static_cast<double>(wall));
  w.a = Delta(a0, a1, wall);
  w.b = Delta(b0, b1, wall);
  return w;
}

// --- Reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string detail;  // sample count / base, printed in the table only
};

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << "\n" << title << "\n";
  for (const Metric& m : metrics) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-40s %16.4f %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.detail.c_str());
    std::cout << line;
  }
}

std::string N(uint64_t n, const char* what = "samples") {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// Prints a window's load, thread load and steal, and whether it is valid.
void PrintValidity(const Window& w, const std::string& label) {
  const std::string why = w.invalid_reason();
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s: %.0f ops/s, %.2f us cpu/op, busy_frac generator %.3f  a %.3f  b %.3f, "
                "steal %.1f ms/s -> %s%s\n",
                label.c_str(), w.throughput(), w.cpu_us_per_op(), w.gen_busy_frac, w.a.busy_frac,
                w.b.busy_frac, w.steal_ms_per_s(), why.empty() ? "valid" : "INVALID: ", why.c_str());
  std::cout << line;
}

void AddResolverLayer(std::vector<Metric>& out, const std::string& sfx, const Resolver& r,
                      const ResolverWindow& w, const ResolverReplay& replay,
                      const ins::NameTree::Stats& tree) {
  const SpanRecorder& rec = *r.rec;
  std::vector<uint32_t> self;
  uint64_t recvs = 0;
  for (const KindStats& ks : rec.recv) {
    self.insert(self.end(), ks.self_ns.begin(), ks.self_ns.end());
    recvs += ks.count;
  }
  const Dist self_d = Summarize(self);
  std::vector<uint32_t> send_ns = rec.send_ns;
  const Dist send_d = Summarize(send_ns);
  const double secs = static_cast<double>(w.cpu_ns) / std::max(w.busy_frac, 1e-12) / 1e9;
  out.push_back({"inr.recv_self_ns_p50" + sfx, self_d.p50, "ns", N(self_d.count, "datagrams")});
  out.push_back({"inr.recv_self_ns_p99" + sfx, self_d.p99, "ns", N(self_d.count, "datagrams")});
  out.push_back({"inr.busy_frac" + sfx, w.busy_frac, "ratio", "(thread CPU / wall)"});
  out.push_back({"inr.timer_ns_per_s" + sfx, Ratio(static_cast<double>(rec.timer_ns_total), secs), "ns/s",
                 N(rec.timer_runs, "callbacks")});
  out.push_back({"inr.timer_ns_max" + sfx, static_cast<double>(rec.timer_ns_max), "ns",
                 N(rec.timer_runs, "callbacks")});
  out.push_back({"transport.send_ns_p50" + sfx, send_d.p50, "ns", N(send_d.count, "sends")});
  out.push_back({"transport.send_ns_p99" + sfx, send_d.p99, "ns", N(send_d.count, "sends")});
  out.push_back({"transport.sends_per_recv" + sfx, Ratio(static_cast<double>(rec.sends), static_cast<double>(recvs)),
                 "ratio", "(" + std::to_string(rec.sends) + " / " + std::to_string(recvs) + ")"});
  out.push_back({"transport.batch_fill_p50" + sfx, w.batch_fill_p50, "count",
                 N(w.delta.at("transport.send.batches"), "batches")});
  out.push_back({"transport.recv_per_batch" + sfx,
                 Ratio(static_cast<double>(w.delta.at("transport.recv.datagrams")),
                       static_cast<double>(w.delta.at("transport.recv.batches"))),
                 "ratio", N(w.delta.at("transport.recv.batches"), "batches")});
  out.push_back({"transport.write_blocked" + sfx,
                 static_cast<double>(w.delta.at("transport.send.write_blocked")), "count", ""});
  out.push_back({"transport.drops" + sfx,
                 static_cast<double>(w.delta.at("transport.drop.backpressure") +
                                     w.delta.at("transport.drop.error") +
                                     w.delta.at("transport.drop.oversize")),
                 "count", ""});
  out.push_back({"forwarding.drops" + sfx, static_cast<double>(w.delta.at("forwarding.drops")), "count", ""});
  out.push_back({"nametree.records" + sfx, static_cast<double>(tree.records), "count", ""});
  out.push_back({"nametree.bytes" + sfx, static_cast<double>(tree.bytes), "bytes", ""});
  out.push_back({"nametree.plan_cache_hit_ratio" + sfx,
                 Ratio(static_cast<double>(w.plan_hits), static_cast<double>(w.plan_lookups)), "ratio",
                 "(" + std::to_string(w.plan_hits) + " / " + std::to_string(w.plan_lookups) + " plans)"});
  out.push_back({"nametree.fallback_frac" + sfx,
                 Ratio(static_cast<double>(w.fallbacks), static_cast<double>(w.lookups)), "ratio",
                 "(" + std::to_string(w.fallbacks) + " / " + std::to_string(w.lookups) + " lookups)"});
  out.push_back({"inr.unattributed_frac" + sfx, replay.unattributed_frac, "ratio",
                 N(rec.recv[static_cast<uint8_t>(ins::MessageType::kData)].count, "data datagrams")});
}

void PrintPerKind(const std::string& who, const SpanRecorder& rec) {
  std::cout << "\nreceive spans at " << who << " by message kind (self = span minus child sends)\n";
  for (size_t kind = 0; kind < SpanRecorder::kKinds; ++kind) {
    const KindStats& ks = rec.recv[kind];
    if (ks.count == 0) {
      continue;
    }
    std::vector<uint32_t> self = ks.self_ns;
    const Dist d = Summarize(self);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-24s n=%-9llu self p50 %8.0f ns  p99 %8.0f ns  mean span %8.0f ns  "
                  "sends/recv %.2f\n",
                  KindName(static_cast<uint8_t>(kind)).c_str(),
                  static_cast<unsigned long long>(ks.count), d.p50, d.p99,
                  static_cast<double>(ks.total_ns) / static_cast<double>(ks.count),
                  static_cast<double>(ks.child_sends) / static_cast<double>(ks.count));
    std::cout << line;
  }
}

void WriteSpans(const std::string& path, const SpanRecorder& rec) {
  std::ofstream out(path);
  out << "index\tname\tkind\tstart_ns\tend_ns\tparent\trequest_id\n";
  static const char* kNames[] = {"recv", "send", "timer"};
  for (size_t i = 0; i < rec.spans.size(); ++i) {
    const Span& s = rec.spans[i];
    out << i << '\t' << kNames[static_cast<int>(s.name)] << '\t' << KindName(s.kind) << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t'
        << (s.parent == Span::kNoParent ? -1 : static_cast<int64_t>(s.parent)) << '\t'
        << s.request_id << '\n';
  }
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload " << args.workload << " (want anycast|resolve|churn)\n";
    return 2;
  }
  const int64_t window_ns = static_cast<int64_t>(args.seconds) * 1'000'000'000;
  const bool churn = spec->churn;
  const int64_t lead_ns = churn ? kChurnLeadNs : 0;
  // A traced run's second window opens whole refresh periods after the
  // first, at the same phase, once the first has closed.
  const int64_t traced_offset_ns = (window_ns + kRefreshNs - 1) / kRefreshNs * kRefreshNs;
  // Long enough for that second window too, so --trace does not change the
  // inputs.
  const double write_seconds =
      static_cast<double>(lead_ns + traced_offset_ns + window_ns + kDrainNs) / 1e9;
  const Corpus corpus = BuildCorpus(*spec, args.seed, write_seconds);
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(corpus.hash));
  std::cout << "workload " << spec->name << "  seed " << args.seed << "  window " << args.seconds
            << " s  trace " << args.trace << "\n"
            << "input hash " << hash << "  (" << corpus.records.size() << " names, "
            << corpus.queries.size() << " distinct queries, " << corpus.writes.size()
            << " scheduled writes)\n";

  const int setups = args.trace ? 1 : kSetups;
  const uint16_t base = FindFreePortBlock(static_cast<size_t>(setups) * kPortsPerDeployment);
  std::cout << "loopback ports " << base << ".." << base + setups * kPortsPerDeployment - 1 << "\n";

  ins::RealEventLoop loop;
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    if (d != nullptr) {
      gen->StopLoad();
      RunUntil(loop, NowNs() + 100'000'000);
      gen.reset();
      d.reset();
    }
    const int64_t t0 = NowNs();
    d = std::make_unique<Deployment>(loop, static_cast<uint16_t>(base + i * kPortsPerDeployment),
                                     args.trace);
    gen = std::make_unique<Generator>(*spec, corpus, loop, *d);
    const std::string phases = SetUp(*d, *gen, loop, corpus.records.size());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    std::cout << "set-up " << i + 1 << ": " << setup_s.back() << " s (" << phases << ")\n";
  }

  // The first window opens at the workload's phase of b's refresh cycle,
  // once set-up (and, for churn, the write lead-in) fits before it.
  int64_t open_ns = d->b->started_ns + static_cast<int64_t>(spec->window_phase_s * 1e9);
  while (open_ns - lead_ns < NowNs() + 100'000'000) {
    open_ns += kRefreshNs;
  }
  if (churn) {
    gen->StartWrites(open_ns - lead_ns);
  }
  const Window plain = MeasureWindow(*d, *gen, loop, open_ns, window_ns, false);
  // Peak memory over the set-ups and the window, read before a traced run's
  // second window adds to it.
  const double peak_rss_mb = PeakRssMb();
  PrintValidity(plain, "window");
  std::optional<Window> traced;
  if (args.trace) {
    traced = MeasureWindow(*d, *gen, loop, open_ns + traced_offset_ns, window_ns, true);
  }
  gen->StopLoad();
  gen->StopWrites();
  const bool probe = !churn && !args.trace;
  if (probe) {
    // Read-only workloads: discovery time of a probe burst on the loaded store.
    RunUntil(loop, NowNs() + 200'000'000);
    gen->StartWrites(NowNs());
  }
  RunUntil(loop, NowNs() + (probe ? 1'500'000'000 : 0) + kDrainNs);
  gen->AbandonOutstanding();
  const auto grafted = d->a->thread.Call([&] { return d->a->discovered; });
  std::vector<uint32_t> discovery =
      gen->DiscoveryNs(grafted, probe ? nullptr : plain.stats);
  // Freeze both resolvers as they are: the replay reads their stores.
  d->a->thread.StopAndJoin();
  d->b->thread.StopAndJoin();

  const WindowStats& ws = *plain.stats;
  const uint64_t attempted = ws.attempted;
  const uint64_t failed = ws.failed;
  if (churn) {
    std::vector<uint32_t> late = ws.write_lateness_ns;
    const Dist l = Summarize(late);
    std::printf("write schedule lateness: p99 %.1f us  max %.1f us  (n=%zu writes)\n", l.p99 / 1e3,
                l.max / 1e3, l.count);
  }
  std::printf("ops: %llu attempted, %llu completed and %llu failed in the window (%llu lost, "
              "%llu failures, %llu wrong, %llu late answers over the whole run)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(ws.completed),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(gen->lost()),
              static_cast<unsigned long long>(gen->failures()),
              static_cast<unsigned long long>(gen->wrong()),
              static_cast<unsigned long long>(gen->stale()));

  const Dist latency = plain.latency_ns();
  const Dist disc = Summarize(discovery);
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s", N(setup_s.size(), "set-ups")},
      {"throughput_ops", plain.throughput(), "ops/s", N(ws.completed, "ops")},
      {"latency_p50_us", latency.p50 / 1e3, "us", N(latency.count, "ops")},
      {"latency_p99_us", latency.p99 / 1e3, "us", N(latency.count, "ops")},
      {"cpu_us_per_op", plain.cpu_us_per_op(), "us", N(ws.completed, "ops")},
      {"failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio",
       "(" + std::to_string(failed) + " / " + std::to_string(attempted) + ")"},
      {"discovery_us_p50", disc.p50 / 1e3, "us",
       N(disc.count, probe ? "probe grafts" : "grafts")},
      {"discovery_us_p99", disc.p99 / 1e3, "us",
       N(disc.count, probe ? "probe grafts" : "grafts")},
      {"peak_rss_mb", peak_rss_mb, "MB", "(VmHWM after the window)"},
  };
  PrintTable("end-to-end (untraced window)", e2e);
  std::printf("slices (ops/s / steal ms):");
  int64_t slice_start = ws.start_ns;
  for (const Slice& slice : ws.slices) {
    std::printf(" %.0f/%lld",
                static_cast<double>(slice.completed) / (static_cast<double>(slice.end_ns - slice_start) / 1e9),
                static_cast<long long>(slice.steal_ms));
    slice_start = slice.end_ns;
  }
  std::printf("\n");
  // Lost ops and names that never grafted count as failed; a wrong answer
  // anywhere in the run makes it incorrect.
  const bool correct = gen->wrong() == 0;

  if (!args.trace) {
    // The gated metrics (BENCHMARK.json). failed_frac reaches the result as
    // "failed"/"attempted"; the p99s and discovery time are printed only,
    // because on a shared host they did not repeat within any usable bound.
    std::vector<Metric> reported;
    for (const Metric& m : e2e) {
      if (m.name != "failed_frac" && m.name != "latency_p99_us" &&
          m.name.rfind("discovery_", 0) != 0) {
        reported.push_back(m);
      }
    }
    PrintJson(correct, attempted, failed, reported);
    return 0;
  }

  const Window& tw = *traced;
  PrintValidity(tw, "traced window");
  const ReplayReport replay = Replay(*d->a->rec, d->a->inr->vspaces().store(), *d->b->rec,
                                     d->b->inr->vspaces().store(), corpus.records);
  std::vector<Metric> layer;
  AddResolverLayer(layer, ".a", *d->a, tw.a, replay.a, d->a->inr->vspaces().store().ComputeStats());
  AddResolverLayer(layer, ".b", *d->b, tw.b, replay.b, d->b->inr->vspaces().store().ComputeStats());
  // Gated names carry the pooled figures, which exist on every workload; the
  // per-kind and per-plan splits are printed after them.
  std::vector<Metric> split;
  auto pooled = [&](const std::map<std::string, Dist>& m, const std::string& name,
                    double Dist::*quantile, const std::string& suffix) {
    for (const auto& [key, dist] : m) {
      Metric metric{name + (key == "all" ? "" : "." + key) + suffix, dist.*quantile, "ns",
                    N(dist.count)};
      (key == "all" ? layer : split).push_back(metric);
    }
  };
  pooled(replay.decode_ns, "wire.decode_ns", &Dist::p50, "");
  pooled(replay.encode_ns, "wire.encode_ns", &Dist::p50, "");
  layer.push_back({"name.parse_ns", replay.parse_ns.p50, "ns", N(replay.parse_ns.count)});
  pooled(replay.lookup_ns, "nametree.lookup_ns_p50", &Dist::p50, "");
  pooled(replay.lookup_ns, "nametree.lookup_ns_p99", &Dist::p99, "");
  layer.push_back({"nametree.upsert_ns", replay.upsert_ns.p50, "ns",
                   N(replay.upsert_ns.count,
                     replay.upsert_from_writes ? "captured writes" : "set-up advertisements")});
  layer.push_back({"generator.busy_frac", tw.gen_busy_frac, "ratio", "(thread CPU / wall)"});
  layer.push_back({"trace.throughput_ops", tw.throughput(), "ops/s", N(tw.stats->completed, "ops")});
  layer.push_back({"trace.overhead_throughput_frac",
                   Ratio(tw.throughput() - plain.throughput(), plain.throughput()), "ratio",
                   "(traced vs untraced window)"});
  layer.push_back({"trace.overhead_cpu_us_per_op_frac",
                   Ratio(tw.cpu_us_per_op() - plain.cpu_us_per_op(), plain.cpu_us_per_op()),
                   "ratio", "(traced vs untraced window)"});
  PrintTable("per-layer (traced window)", layer);
  PrintTable("per message kind and per lookup plan (replayed, p50 unless named)", split);
  for (const auto& [who, r] : {std::pair<const char*, const ResolverReplay*>{"a", &replay.a},
                               {"b", &replay.b}}) {
    std::printf("attribution at %s per data datagram: decode %.0f + name %.0f + lookup %.0f + "
                "encode %.0f ns (replayed, n=%zu)%s\n",
                who, r->decode_ns, r->name_decode_ns, r->lookup_ns, r->encode_ns, r->data_datagrams,
                r->plan_split_exact ? "" : "; WARNING: tree walks != wildcard queries");
  }
  PrintPerKind("a", *d->a->rec);
  PrintPerKind("b", *d->b->rec);
  const char* dir = std::getenv("PERFBENCH_TRACE_DIR");
  if (dir != nullptr && *dir != '\0') {
    for (const auto& [who, r] : {std::pair<const char*, Resolver*>{"a", d->a.get()}, {"b", d->b.get()}}) {
      const std::string path = std::string(dir) + "/" + spec->name + "-seed" +
                               std::to_string(args.seed) + "-" + who + ".tsv";
      WriteSpans(path, *r->rec);
      std::cout << "spans written to " << path << "\n";
    }
  }
  PrintJson(correct, tw.stats->attempted, tw.stats->failed, layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::cerr << "usage: " << argv[0]
              << " --workload anycast|resolve|churn --seed N --seconds T --trace 0|1\n";
    return 2;
  }
  try {
    return perfbench::Run(*args);
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
