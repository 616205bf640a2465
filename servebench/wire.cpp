#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <thread>

#include "net/client.h"
#include "util/check.h"
#include "util/socket.h"

extern char** environ;

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Waits up to `timeout_s` for `pid` to exit; returns its wait status, or
// -1 when it is still running.
int reap(pid_t pid, double timeout_s) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return 0;  // already reaped
    if (secondsSince(start) > timeout_s) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// The load generator keeps the last CPU this process may use to itself
// and the server gets the others, so neither preempts the other. With
// a single CPU both share it.
const cpu_set_t& startCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    ::sched_getaffinity(0, sizeof s, &s);
    return s;
  }();
  return cpus;
}

cpu_set_t clientCpus() {
  cpu_set_t client = startCpus();
  if (CPU_COUNT(&client) < 2) return client;
  CPU_ZERO(&client);
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &startCpus())) {
      CPU_SET(c, &client);
      break;
    }
  }
  return client;
}

cpu_set_t serverCpus() {
  cpu_set_t server = startCpus();
  if (CPU_COUNT(&server) < 2) return server;
  const cpu_set_t client = clientCpus();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &client)) CPU_CLR(c, &server);
  }
  return server;
}

// Restricts the calling thread to `cpus` while alive. Threads it starts
// meanwhile, and children it spawns, inherit the restriction.
class ThreadAffinity {
 public:
  explicit ThreadAffinity(const cpu_set_t& cpus) {
    CPU_ZERO(&saved_);
    ::sched_getaffinity(0, sizeof saved_, &saved_);
    ::sched_setaffinity(0, sizeof cpus, &cpus);
  }
  ~ThreadAffinity() { ::sched_setaffinity(0, sizeof saved_, &saved_); }
  ThreadAffinity(const ThreadAffinity&) = delete;
  ThreadAffinity& operator=(const ThreadAffinity&) = delete;

 private:
  cpu_set_t saved_;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& flags,
                             const std::string& work_dir) {
  static std::atomic<int> serial{0};
  const std::string port_file = work_dir + "/port-" + std::to_string(::getpid()) +
                                "-" + std::to_string(serial++);
  const std::string log_file = work_dir + "/server.log";
  ::unlink(port_file.c_str());

  std::vector<std::string> args = {binary, "--port", "0", "--port-file",
                                   port_file};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  int rc = 0;
  {
    const ThreadAffinity on_server_cpus(serverCpus());  // the child inherits
    rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                       environ);
  }
  posix_spawn_file_actions_destroy(&actions);
  PRIO_CHECK_MSG(rc == 0, "cannot spawn " << binary << ": " << std::strerror(rc));

  // The server writes the port file atomically once it listens. A
  // constructor that throws runs no destructor, so failures reap here.
  auto fail = [&](const std::string& why) {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap(pid_, 10.0);
      pid_ = -1;
    }
    PRIO_CHECK_MSG(false, why);
  };
  const Clock::time_point start = Clock::now();
  for (;;) {
    const std::string text = readFile(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::stoul(text));
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      fail("priod_server exited during start-up; see " + log_file);
    }
    if (secondsSince(start) > 30.0) fail("priod_server did not listen within 30 s");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ::unlink(port_file.c_str());
}

ServerProcess::~ServerProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  if (reap(pid_, 10.0) == -1) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10.0);
  }
}

void ServerProcess::stop() {
  PRIO_CHECK(pid_ > 0);
  ::kill(pid_, SIGTERM);
  const int status = reap(pid_, 20.0);
  if (status == -1) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10.0);
    pid_ = -1;
    PRIO_CHECK_MSG(false, "priod_server did not drain within 20 s");
  }
  pid_ = -1;
  PRIO_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "priod_server exited abnormally (wait status " << status
                                                                << ")");
}

ServerProcess::Usage ServerProcess::usage() const {
  const std::string stat = readFile("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesized command name start at field 3
  // (state); minflt is field 10, utime and stime are fields 14 and 15.
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  Usage u;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (int f = 3; f <= 15 && in >> field; ++f) {
    if (f == 10) u.minor_faults = std::stod(field);
    if (f == 14) u.user_s = std::stod(field) / tick;
    if (f == 15) u.system_s = std::stod(field) / tick;
  }
  return u;
}

double ServerProcess::peakRssMb() const {
  std::istringstream in(readFile("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  PRIO_CHECK_MSG(false, "no VmHWM for pid " << pid_);
  return 0.0;
}

std::map<std::string, double> ServerProcess::metrics() const {
  std::istringstream in(prio::net::Client::fetchMetrics("127.0.0.1", port_));
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

namespace {

struct Connection {
  prio::util::UniqueFd fd;
  prio::net::FrameDecoder decoder;
  std::int64_t request = -1;  ///< outstanding sequence index, -1 = idle
  Clock::time_point sent;
};

prio::util::UniqueFd connectLoopback(std::uint16_t port) {
  prio::util::UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  PRIO_CHECK_MSG(fd.valid(), "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  PRIO_CHECK_MSG(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0,
                 "connect: " << std::strerror(errno));
  return fd;
}

void writeAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    PRIO_CHECK_MSG(n > 0, "write: " << std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

DriveResult drive(std::uint16_t port, const Sequence& seq, double seconds) {
  const ThreadAffinity on_client_cpu(clientCpus());
  DriveResult result;
  result.samples.reserve(seq.size());
  std::vector<Connection> conns(seq.connections);
  for (Connection& c : conns) c.fd = connectLoopback(port);

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last_reply = start;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::string wire;
  prio::net::Frame request;
  request.version = prio::net::kVersion3;

  auto send = [&](Connection& c) {
    if (next >= seq.size()) return;
    if (seconds > 0.0 && Clock::now() >= deadline) return;
    const Payload& p = seq.at(next);
    request.request_id = next + 1;
    request.payload_kind = p.kind;
    request.payload = p.bytes;
    wire.clear();
    prio::net::encodeFrame(request, wire);
    c.request = static_cast<std::int64_t>(next++);
    c.sent = Clock::now();
    writeAll(c.fd.get(), wire);
    ++outstanding;
  };
  for (Connection& c : conns) send(c);

  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;
  std::vector<char> buf(1 << 16);
  while (outstanding > 0) {
    pfds.clear();
    polled.clear();
    for (Connection& c : conns) {
      if (c.request < 0) continue;
      pfds.push_back({c.fd.get(), POLLIN, 0});
      polled.push_back(&c);
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 120000);
    if (ready < 0 && errno == EINTR) continue;
    PRIO_CHECK_MSG(ready > 0, "no reply from priod_server within 120 s");
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Connection& c = *polled[i];
      const ssize_t n = ::read(c.fd.get(), buf.data(), buf.size());
      if (n < 0 && errno == EINTR) continue;
      PRIO_CHECK_MSG(n > 0, "priod_server closed a connection");
      c.decoder.feed(buf.data(), static_cast<std::size_t>(n));
      prio::net::Frame reply;
      const auto got = c.decoder.next(reply);
      PRIO_CHECK_MSG(got != prio::net::FrameDecoder::Result::kError,
                     "bad reply frame: " << c.decoder.error());
      if (got == prio::net::FrameDecoder::Result::kNeedMore) continue;
      last_reply = Clock::now();
      PRIO_CHECK_MSG(reply.request_id == static_cast<std::uint64_t>(c.request) + 1,
                     "reply for request " << reply.request_id << ", expected "
                                          << c.request + 1);
      Sample s;
      s.request = static_cast<std::uint32_t>(c.request);
      s.status = reply.status;
      s.latency_s = std::chrono::duration<double>(last_reply - c.sent).count();
      s.reply_bytes = reply.payload.size();
      c.request = -1;
      --outstanding;
      send(c);  // closed loop: the next request leaves before bookkeeping
      s.reply_hash = std::hash<std::string_view>{}(reply.payload);
      result.samples.push_back(s);
    }
  }
  result.elapsed_s = std::chrono::duration<double>(last_reply - start).count();
  return result;
}

}  // namespace servebench
