#include "host_speed.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"

namespace perfbench::host {

namespace {

/// The compute reference's table: the FB15k-237 stand-in's entity count by
/// the default ComplEx width (2 x dim 32), embeddings plus gradients.
constexpr size_t kRows = 373;
constexpr size_t kDim = 64;
/// Score-softmax-gradient-step rounds per compute slice.
constexpr int kRoundsPerSlice = 300;
/// Round trips per loopback slice, and their message size.
constexpr int kEchoesPerSlice = 100;
constexpr size_t kEchoBytes = 64;
/// Slices one run can record per reference (a run takes a few thousand).
constexpr size_t kMaxSlices = 1 << 16;

struct Table {
  float emb[kRows * kDim];
  float grad[kRows * kDim];
};

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::atomic<uint32_t> next_thread{0};
thread_local uint32_t t_index = UINT32_MAX;

uint32_t ThreadIndex() {
  if (t_index == UINT32_MAX) t_index = next_thread++;
  return t_index;
}

struct Slice {
  uint32_t thread;
  double end_s;
  double seconds;
};

/// Slices, appended from signal handlers: no locks, no allocation.
struct Store {
  std::array<Slice, kMaxSlices> slices{};
  std::atomic<size_t> count{0};

  void Add(double s) {
    const size_t i = count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSlices) slices[i] = {t_index, Now(), s};
  }
  std::vector<Slice> All() const {
    const size_t n =
        std::min(count.load(std::memory_order_relaxed), kMaxSlices);
    return std::vector<Slice>(slices.begin(), slices.begin() + n);
  }
  std::vector<double> Sorted() const {
    std::vector<double> v;
    for (const Slice& s : All()) v.push_back(s.seconds);
    std::sort(v.begin(), v.end());
    return v;
  }
};

Store& StoreOf(Reference ref) {
  static Store compute, loopback;
  return ref == Reference::kCompute ? compute : loopback;
}

std::atomic<bool> enabled{true};

thread_local std::unique_ptr<Table> t_table;
thread_local std::atomic<double> t_slice_s{0.0};
thread_local timer_t t_timer;
thread_local bool t_slicing = false;

Table& ThreadTable() {
  if (!t_table) {
    t_table = std::make_unique<Table>();
    uint32_t x = 12345;
    for (float& v : t_table->emb) {
      x = x * 1664525u + 1013904223u;
      v = static_cast<float>(x >> 8) / 16777216.0f - 0.5f;
    }
  }
  return *t_table;
}

double ComputeSlice(Table& t) {
  std::fill(std::begin(t.grad), std::end(t.grad), 0.0f);
  float query[kDim];
  float score[kRows];
  for (size_t d = 0; d < kDim; ++d) query[d] = t.emb[d];
  const auto start = Clock::now();
  for (int round = 0; round < kRoundsPerSlice; ++round) {
    float max_score = -1e30f;
    for (size_t r = 0; r < kRows; ++r) {
      float s = 0.0f;
      for (size_t d = 0; d < kDim; ++d) s += t.emb[r * kDim + d] * query[d];
      score[r] = s;
      max_score = std::max(max_score, s);
    }
    float z = 0.0f;
    for (size_t r = 0; r < kRows; ++r) {
      score[r] = std::exp(score[r] - max_score);
      z += score[r];
    }
    for (size_t r = 0; r < kRows; ++r) {
      const float c = score[r] / z;
      for (size_t d = 0; d < kDim; ++d) t.grad[r * kDim + d] += c * query[d];
    }
    const size_t row = static_cast<size_t>(round) % kRows;
    const size_t next = (static_cast<size_t>(round) * 7 + 1) % kRows;
    for (size_t d = 0; d < kDim; ++d) {
      t.emb[row * kDim + d] -= 1e-4f * t.grad[row * kDim + d];
      query[d] = 0.9f * query[d] + 0.1f * t.emb[next * kDim + d];
    }
  }
  const double seconds = SecondsSince(start);
  // Keep the table bounded however many slices run.
  for (size_t d = 0; d < kDim; ++d) t.emb[d] = 0.5f * (t.emb[d] + query[d]);
  return seconds;
}

void RecordCompute(double s) {
  t_slice_s.store(t_slice_s.load(std::memory_order_relaxed) + s,
                  std::memory_order_relaxed);
  StoreOf(Reference::kCompute).Add(s);
}

void OnTimer(int) {
  const int saved_errno = errno;
  if (t_slicing) RecordCompute(ComputeSlice(*t_table));
  errno = saved_errno;
}

// ---- Loopback reference: one connection to an echo thread.

struct Echo {
  int client = -1;
  int server = -1;
  std::thread thread;
};

std::mutex echo_mu;
std::unique_ptr<Echo> echo;

bool ExactIo(int fd, char* buf, size_t n, bool write) {
  size_t done = 0;
  while (done < n) {
    const ssize_t k = write ? ::write(fd, buf + done, n - done)
                            : ::read(fd, buf + done, n - done);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    done += static_cast<size_t>(k);
  }
  return true;
}

/// Opens the loopback connection and starts the echo thread; a fatal error
/// if the host has no loopback TCP (the serve workload needs it too).
Echo& EchoConnection() {
  if (echo) return *echo;
  auto e = std::make_unique<Echo>();
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  KELPIE_CHECK(listener >= 0 &&
               ::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0 &&
               ::listen(listener, 1) == 0 &&
               ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0)
      << "loopback listener: " << std::strerror(errno);
  e->client = ::socket(AF_INET, SOCK_STREAM, 0);
  KELPIE_CHECK(e->client >= 0 &&
               ::connect(e->client, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0)
      << "loopback connect: " << std::strerror(errno);
  e->server = ::accept(listener, nullptr, nullptr);
  KELPIE_CHECK(e->server >= 0) << "loopback accept: " << std::strerror(errno);
  ::close(listener);
  const int one = 1;
  for (int fd : {e->client, e->server}) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  const int fd = e->server;
  e->thread = std::thread([fd] {
    char buf[kEchoBytes];
    while (ExactIo(fd, buf, kEchoBytes, false) &&
           ExactIo(fd, buf, kEchoBytes, true)) {
    }
  });
  echo = std::move(e);
  return *echo;
}

double LoopbackSlice() {
  ThreadIndex();
  std::lock_guard<std::mutex> lock(echo_mu);
  Echo& e = EchoConnection();
  char buf[kEchoBytes] = {};
  const auto start = Clock::now();
  for (int i = 0; i < kEchoesPerSlice; ++i) {
    KELPIE_CHECK(ExactIo(e.client, buf, kEchoBytes, true) &&
                 ExactIo(e.client, buf, kEchoBytes, false))
        << "loopback echo failed";
  }
  return SecondsSince(start);
}

}  // namespace

double NominalSliceS(Reference ref) {
  return ref == Reference::kCompute ? 6e-3 : 3.3e-3;
}

double RunSlice(Reference ref) {
  return ref == Reference::kCompute ? ComputeSlice(ThreadTable())
                                    : LoopbackSlice();
}

void Enable(bool on) { enabled = on; }

void StartSlicing() {
  if (!enabled) return;
  static const bool installed = [] {
    struct sigaction action {};
    action.sa_handler = OnTimer;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    return ::sigaction(SIGRTMIN, &action, nullptr) == 0;
  }();
  KELPIE_CHECK(installed) << "sigaction: " << std::strerror(errno);
  ThreadTable();
  ThreadIndex();
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGRTMIN;
  event._sigev_un._tid = ::gettid();
  KELPIE_CHECK(::timer_create(CLOCK_MONOTONIC, &event, &t_timer) == 0)
      << "timer_create: " << std::strerror(errno);
  itimerspec period{};
  period.it_interval.tv_nsec = static_cast<long>(kSliceEveryS * 1e9);
  period.it_value = period.it_interval;
  t_slicing = true;
  KELPIE_CHECK(::timer_settime(t_timer, 0, &period, nullptr) == 0)
      << "timer_settime: " << std::strerror(errno);
}

void StopSlicing() {
  if (!t_slicing) return;
  ::timer_delete(t_timer);
  t_slicing = false;
}

double ThreadSliceSeconds() {
  return t_slice_s.load(std::memory_order_relaxed);
}

OpTimer::OpTimer() : start_s_(Now()), slices_s_(ThreadSliceSeconds()) {
  ThreadIndex();
}

double OpTimer::Seconds() const {
  return Now() - start_s_ - (ThreadSliceSeconds() - slices_s_);
}

Interval OpTimer::Done() const { return {t_index, start_s_, Now()}; }

double LocalScale(Reference ref, const Interval& op, double margin_s) {
  std::vector<double> local;
  for (const Slice& s : StoreOf(ref).All()) {
    if (s.thread == op.thread && s.end_s >= op.start_s - margin_s &&
        s.end_s - s.seconds <= op.end_s + margin_s) {
      local.push_back(s.seconds);
    }
  }
  if (local.size() < kMinLocalSlices) return Scale(ref);
  std::sort(local.begin(), local.end());
  if (local.size() >= 5) local.pop_back();
  double sum = 0.0;
  for (double s : local) sum += s;
  return NominalSliceS(ref) * static_cast<double>(local.size()) / sum;
}

void Pace(Reference ref, double op_s, int min_slices) {
  if (!enabled) return;
  ThreadIndex();
  thread_local double owed_s[2] = {0.0, 0.0};
  double& owed = owed_s[ref == Reference::kCompute ? 0 : 1];
  owed += op_s;
  for (int n = 0; owed >= kSliceEveryS || n < min_slices; ++n) {
    owed = std::max(0.0, owed - kSliceEveryS);
    const double s = RunSlice(ref);
    if (ref == Reference::kCompute) {
      RecordCompute(s);
    } else {
      StoreOf(ref).Add(s);
    }
  }
}

double MeanSliceS(Reference ref) {
  std::vector<double> sorted = StoreOf(ref).Sorted();
  sorted.resize(sorted.size() - sorted.size() / 100);
  if (sorted.empty()) return NominalSliceS(ref);
  double sum = 0.0;
  for (double s : sorted) sum += s;
  return sum / static_cast<double>(sorted.size());
}

double Scale(Reference ref) { return NominalSliceS(ref) / MeanSliceS(ref); }

std::string Note() {
  std::string out;
  for (Reference ref : {Reference::kCompute, Reference::kLoopback}) {
    const std::vector<double> sorted = StoreOf(ref).Sorted();
    if (sorted.empty()) continue;
    char line[220];
    std::snprintf(line, sizeof(line),
                  "%shost %s: %zu slices, mean %.3f ms (p10 %.3f, p90 %.3f); "
                  "times scaled by %.4f",
                  out.empty() ? "" : "\n# ",
                  ref == Reference::kCompute ? "compute" : "loopback",
                  sorted.size(), 1e3 * MeanSliceS(ref),
                  1e3 * Quantile(sorted, 0.1), 1e3 * Quantile(sorted, 0.9),
                  Scale(ref));
    out += line;
  }
  return out.empty() ? "host: no reference slices" : out;
}

void StopLoopback() {
  std::lock_guard<std::mutex> lock(echo_mu);
  if (!echo) return;
  ::shutdown(echo->client, SHUT_RDWR);
  echo->thread.join();
  ::close(echo->client);
  ::close(echo->server);
  echo.reset();
}

}  // namespace perfbench::host
