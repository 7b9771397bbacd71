// How a client waits for the engine, and two reference measurements of
// the host the benchmark shares: what it adds to each hand-off between
// threads, and how fast it runs a fixed piece of work. Neither runs the
// program under test, so a change to the program moves the latencies
// and not the probes, and a change of host speed moves both.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "trace.h"

namespace e2e {

// Waits for a reply the way a latency-sensitive client does: polls it
// for up to kPollNs, yielding its vCPU between polls, and only then
// blocks. A client that blocks at once adds its own thread's wake-up to
// every page it times -- on a virtual machine an interrupt to a halted
// vCPU, which the hypervisor delivers late when the host is busy; that
// cost is the client's, not the engine's.
constexpr int64_t kPollNs = 1000000;

template <typename T>
T Await(std::future<T> reply) {
  const int64_t give_up = NowNs() + kPollNs;
  while (reply.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready &&
         NowNs() < give_up)
    std::this_thread::yield();
  return reply.get();
}

// A reference hand-off: a fixed job posted to a thread of the
// benchmark's own that sleeps on a condition variable as the engine's
// workers do, and answered through a promise the client awaits as it
// awaits pages. Its round trip moves with what the host adds to every
// hand-off (steal, late vCPU wake-ups), not with the program under
// test.
class HandoffProbe {
 public:
  HandoffProbe() : thread_([this] { Serve(); }) {}

  ~HandoffProbe() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  HandoffProbe(const HandoffProbe&) = delete;
  HandoffProbe& operator=(const HandoffProbe&) = delete;

  // Times one round trip, in nanoseconds.
  int64_t RoundTripNs() {
    const int64_t t0 = NowNs();
    std::promise<uint64_t> reply;
    std::future<uint64_t> done = reply.get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(reply));
    }
    cv_.notify_one();
    sink_ += Await(std::move(done));
    return NowNs() - t0;
  }

 private:
  // The job: a fixed walk over a 128 KiB table, a few microseconds.
  static constexpr int kSteps = 2000;

  void Serve() {
    std::vector<uint64_t> table(1 << 14, 1);
    uint64_t x = 88172645463325252ull;
    for (;;) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_) return;
      std::promise<uint64_t> reply = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      uint64_t acc = 0;
      for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t& cell = table[x & (table.size() - 1)];
        acc += cell ^ x;
        cell += acc;
      }
      reply.set_value(acc);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::promise<uint64_t>> jobs_;
  bool stop_ = false;
  uint64_t sink_ = 0;  // keeps the job's result alive
  std::thread thread_;
};

// A fixed piece of CPU work, timed on the calling thread: a chain of
// dependent multiplies over a 16 KiB table that stays in L1. On the
// shared virtual machines the benchmark was built on, the host ran the
// same work 1.5-1.8x faster for ten minutes at a time and slower the
// next; this probe and the program's own CPU time moved together.
class CpuProbe {
 public:
  CpuProbe() : table_(1 << 11, 1) {}

  // Times one piece of work, in nanoseconds, after an untimed one that
  // brings the table back into L1 (a sleeping client's caches are cold).
  int64_t WorkNs() {
    Work();
    const int64_t t0 = NowNs();
    Work();
    return NowNs() - t0;
  }

 private:
  void Work() {
    uint64_t x = sink_ | 1;
    for (int i = 0; i < kSteps; ++i) {
      uint64_t& cell = table_[(x >> 17) & (table_.size() - 1)];
      x = x * 0x9E3779B97F4A7C15ull + cell;
      cell ^= x;
    }
    sink_ = x;
  }

  static constexpr int kSteps = 4000;
  std::vector<uint64_t> table_;
  uint64_t sink_ = 1;  // keeps the work's result alive
};

}  // namespace e2e
