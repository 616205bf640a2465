// The served path as a user sees it: a priod_server child process and a
// closed-loop load generator that drives it over loopback TCP.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "workloads.h"

namespace servebench {

/// One priod_server child. The constructor spawns it and waits until it
/// listens; stop() (or the destructor) sends SIGTERM and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& flags,
                const std::string& work_dir);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  struct Usage {
    double user_s = 0.0;
    double system_s = 0.0;
    double minor_faults = 0.0;
  };
  /// utime, stime and minor page faults of the server so far
  /// (/proc/<pid>/stat).
  [[nodiscard]] Usage usage() const;
  /// Peak resident set (VmHWM) in MiB (/proc/<pid>/status).
  [[nodiscard]] double peakRssMb() const;
  /// Prometheus counters and gauges from GET /metrics, by series name
  /// (labelled series keep their labels in the name).
  [[nodiscard]] std::map<std::string, double> metrics() const;
  /// Graceful stop; throws when the server does not exit with status 0.
  void stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One answered request of a closed-loop run.
struct Sample {
  std::uint32_t request = 0;  ///< index into the sequence
  prio::net::Status status = prio::net::Status::kOk;
  double latency_s = 0.0;
  std::size_t reply_bytes = 0;
  std::uint64_t reply_hash = 0;  ///< std::hash of the reply payload
};

struct DriveResult {
  std::vector<Sample> samples;  ///< in completion order
  /// From the first send until the last reply of the run arrived.
  double elapsed_s = 0.0;
};

/// Sends requests [0, seq.size()) of `seq` in order over
/// seq.connections closed-loop connections: each connection has one
/// request outstanding and sends the next only after its reply. With
/// `seconds` > 0 no request is sent after that much time; the requests
/// still outstanding are then drained. One thread drives every
/// connection. Throws on I/O errors or when the server goes silent.
[[nodiscard]] DriveResult drive(std::uint16_t port, const Sequence& seq,
                                double seconds);

}  // namespace servebench
