// A RealEventLoop running on its own thread, plus a mailbox.
//
// RealEventLoop is single-threaded: every schedule, fd registration and
// callback must happen on the thread inside Run(). The generator thread
// still has to start resolvers, read their stores and snapshot their
// counters, so it posts closures through an eventfd the loop drains like
// any other readable fd.

#ifndef PERFBENCH_LOOP_THREAD_H_
#define PERFBENCH_LOOP_THREAD_H_

#include <pthread.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ins/transport/real_event_loop.h"

namespace perfbench {

class LoopThread {
 public:
  LoopThread() : event_fd_(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (event_fd_ < 0) {
      throw std::runtime_error("eventfd failed");
    }
    loop_.RegisterFd(event_fd_, [this] { Drain(); });
  }

  ~LoopThread() {
    StopAndJoin();
    loop_.UnregisterFd(event_fd_);
    close(event_fd_);
  }

  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  // Everything bound to the loop before Start() is handed over with the
  // thread (std::thread's constructor synchronizes with the new thread).
  ins::RealEventLoop& loop() { return loop_; }

  void Start() {
    thread_ = std::thread([this] { loop_.Run(); });
    if (pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) != 0) {
      throw std::runtime_error("pthread_getcpuclockid failed");
    }
  }

  void StopAndJoin() {
    if (thread_.joinable()) {
      loop_.Stop();
      thread_.join();
    }
  }

  void Post(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(fn));
    }
    const uint64_t one = 1;
    if (write(event_fd_, &one, sizeof(one)) != static_cast<ssize_t>(sizeof(one))) {
      throw std::runtime_error("eventfd write failed");
    }
  }

  // Runs `fn` on the loop thread and waits for its result. After the thread
  // has been joined the caller owns the loop's objects, so it runs inline.
  template <typename Fn>
  auto Call(Fn fn) -> std::invoke_result_t<Fn&> {
    using R = std::invoke_result_t<Fn&>;
    if (!thread_.joinable()) {
      return fn();
    }
    std::promise<R> done;
    std::future<R> result = done.get_future();
    Post([&fn, &done] {
      if constexpr (std::is_void_v<R>) {
        fn();
        done.set_value();
      } else {
        done.set_value(fn());
      }
    });
    return result.get();
  }

  // CPU time the loop thread has consumed, in nanoseconds.
  int64_t CpuNs() const {
    timespec ts{};
    clock_gettime(cpu_clock_, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }

 private:
  void Drain() {
    uint64_t count = 0;
    while (read(event_fd_, &count, sizeof(count)) == static_cast<ssize_t>(sizeof(count))) {
    }
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch.swap(queue_);
    }
    for (auto& fn : batch) {
      fn();
    }
  }

  ins::RealEventLoop loop_;
  int event_fd_;
  std::mutex mu_;
  std::vector<std::function<void()>> queue_;  // guarded by mu_
  clockid_t cpu_clock_{};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_THREAD_H_
