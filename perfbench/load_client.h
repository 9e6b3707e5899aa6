// Load generator for the line-protocol TCP front end. In an open loop one
// generator thread sends each request at its due time over a fixed set of
// connections, and one receiver thread per connection timestamps the
// responses, which the server returns in request order per connection. In
// a closed loop each connection waits for a response before it sends on.
#ifndef KELPIE_PERFBENCH_LOAD_CLIENT_H_
#define KELPIE_PERFBENCH_LOAD_CLIENT_H_

#include <string>
#include <vector>

#include "bench_common.h"
#include "common/status.h"

namespace perfbench {

struct PlannedRequest {
  /// Seconds after the phase start at which the request is due.
  double due_s = 0.0;
  size_t connection = 0;
  std::string line;
};

struct PhaseTimings {
  /// Per planned request: seconds from due time to send, and from due time
  /// to response (negative when no response arrived).
  std::vector<double> lag_s;
  std::vector<double> latency_s;
  /// Seconds from send to response (negative when none arrived).
  std::vector<double> round_trip_s;
  std::vector<std::string> response;
};

class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens `connections` loopback connections to `port`.
  kelpie::Status Connect(int port, size_t connections);

  /// Runs one open-loop phase: `plan` must be sorted by due time. Returns
  /// once every response arrived or `drain_s` after the last due time.
  PhaseTimings Run(const std::vector<PlannedRequest>& plan, double drain_s);

  /// Runs one closed-loop phase: each connection sends its next request of
  /// `plan` (due times ignored) once the previous one is answered, so the
  /// server never queues a connection's requests. Latency and round trip
  /// are both send to response; lag is 0.
  PhaseTimings RunClosed(const std::vector<PlannedRequest>& plan,
                         double timeout_s);

  /// Closes the connections (the server then drains and ends them).
  void Close();

 private:
  std::vector<int> fds_;
};

}  // namespace perfbench

#endif  // KELPIE_PERFBENCH_LOAD_CLIENT_H_
