#include "load_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace perfbench {

LoadClient::~LoadClient() { Close(); }

void LoadClient::Close() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
}

kelpie::Status LoadClient::Connect(int port, size_t connections) {
  for (size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return kelpie::Status::IoError(std::string("socket: ") +
                                     std::strerror(errno));
    }
    fds_.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return kelpie::Status::IoError(std::string("connect: ") +
                                     std::strerror(errno));
    }
  }
  return kelpie::Status::Ok();
}

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Sleeps until shortly before `due`, then spins, so sends land on time
/// without the sleep's wake-up error.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(2000);
  if (Clock::now() + kSpin < due) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

PhaseTimings LoadClient::Run(const std::vector<PlannedRequest>& plan,
                             double drain_s) {
  const size_t n = plan.size();
  std::vector<Clock::time_point> sent(n), received(n);
  std::vector<char> answered(n, 0);
  PhaseTimings out;
  out.response.resize(n);

  // Each connection answers in request order, so its j-th response belongs
  // to its j-th planned request.
  std::vector<std::vector<size_t>> order(fds_.size());
  for (size_t i = 0; i < n; ++i) order[plan[i].connection].push_back(i);

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const double last_due = plan.empty() ? 0.0 : plan.back().due_s;
  const auto give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(last_due + drain_s));

  std::vector<std::thread> receivers;
  for (size_t c = 0; c < fds_.size(); ++c) {
    receivers.emplace_back([&, c] {
      std::string buffer;
      char chunk[65536];
      size_t next = 0;
      while (next < order[c].size() && Clock::now() < give_up) {
        pollfd pfd{fds_[c], POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0) continue;
        const ssize_t got = ::recv(fds_[c], chunk, sizeof(chunk), 0);
        if (got <= 0) break;
        // Acknowledge at once instead of holding the ACK for the next
        // request: the server writes responses without TCP_NODELAY, so a
        // delayed ACK would hold its next response back (Nagle).
        const int one = 1;
        ::setsockopt(fds_[c], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
        const auto now = Clock::now();
        buffer.append(chunk, static_cast<size_t>(got));
        size_t begin = 0, newline;
        while (next < order[c].size() &&
               (newline = buffer.find('\n', begin)) != std::string::npos) {
          const size_t i = order[c][next++];
          received[i] = now;
          answered[i] = 1;
          out.response[i] = buffer.substr(begin, newline - begin);
          begin = newline + 1;
        }
        buffer.erase(0, begin);
      }
    });
  }

  for (size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(plan[i].due_s));
    WaitUntil(due);
    sent[i] = Clock::now();
    SendAll(fds_[plan[i].connection], plan[i].line + "\n");
  }
  for (std::thread& t : receivers) t.join();

  out.lag_s.resize(n);
  out.latency_s.resize(n);
  out.round_trip_s.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(plan[i].due_s));
    out.lag_s[i] = SecondsBetween(due, sent[i]);
    out.latency_s[i] = answered[i] ? SecondsBetween(due, received[i]) : -1.0;
    out.round_trip_s[i] =
        answered[i] ? SecondsBetween(sent[i], received[i]) : -1.0;
  }
  return out;
}

PhaseTimings LoadClient::RunClosed(const std::vector<PlannedRequest>& plan,
                                   double timeout_s) {
  const size_t n = plan.size();
  PhaseTimings out;
  out.response.resize(n);
  out.lag_s.assign(n, 0.0);
  out.latency_s.assign(n, -1.0);
  out.round_trip_s.assign(n, -1.0);
  std::vector<std::vector<size_t>> order(fds_.size());
  for (size_t i = 0; i < n; ++i) order[plan[i].connection].push_back(i);
  const auto give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));

  std::vector<std::thread> clients;
  for (size_t c = 0; c < fds_.size(); ++c) {
    clients.emplace_back([&, c] {
      std::string buffer;
      char chunk[65536];
      for (size_t i : order[c]) {
        const auto sent = Clock::now();
        if (!SendAll(fds_[c], plan[i].line + "\n")) return;
        size_t newline;
        while ((newline = buffer.find('\n')) == std::string::npos) {
          if (Clock::now() >= give_up) return;
          pollfd pfd{fds_[c], POLLIN, 0};
          if (::poll(&pfd, 1, 50) <= 0) continue;
          const ssize_t got = ::recv(fds_[c], chunk, sizeof(chunk), 0);
          if (got <= 0) return;
          buffer.append(chunk, static_cast<size_t>(got));
        }
        out.latency_s[i] = out.round_trip_s[i] = SecondsSince(sent);
        out.response[i] = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return out;
}

}  // namespace perfbench
