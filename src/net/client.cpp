#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/retry.h"

namespace prio::net {

namespace {

/// One blocking connect() to a numeric IPv4 address. Returns an invalid
/// fd with errno set on failure.
util::UniqueFd connectOnce(const std::string& host, std::uint16_t port) {
  util::UniqueFd fd = util::socketCloexec(AF_INET, SOCK_STREAM, 0);
  if (!fd.valid()) return {};
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return {};
  }
  int rc = ::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno == EINTR) {
    // A connect interrupted by a signal keeps going asynchronously, and
    // re-calling connect() reports EALREADY rather than the outcome.
    // Wait for writability and harvest the result from SO_ERROR.
    struct pollfd pfd {fd.get(), POLLOUT, 0};
    int pr;
    do {
      pr = ::poll(&pfd, 1, -1);
    } while (pr < 0 && errno == EINTR);
    if (pr <= 0) return {};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return {};
    }
    if (err != 0) {
      errno = err;
      return {};
    }
    rc = 0;
  }
  if (rc != 0) return {};
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

util::UniqueFd connectWithRetry(const std::string& host, std::uint16_t port,
                                const ClientOptions& options) {
  util::ExpBackoff backoff(options.backoff_base_s, options.backoff_cap_s,
                           options.backoff_seed);
  const std::uint64_t attempts =
      options.connect_attempts == 0 ? 1 : options.connect_attempts;
  for (std::uint64_t attempt = 0;; ++attempt) {
    util::UniqueFd fd = connectOnce(host, port);
    if (fd.valid()) return fd;
    // Only "nobody is listening yet" is worth waiting out.
    const bool retryable = errno == ECONNREFUSED;
    PRIO_CHECK_MSG(retryable && attempt + 1 < attempts,
                   "connect " << host << ":" << port << ": "
                              << std::strerror(errno) << " (attempt "
                              << (attempt + 1) << "/" << attempts << ")");
    std::this_thread::sleep_for(
        std::chrono::duration<double>(backoff.next(attempt)));
  }
}

/// Reads some bytes, honoring a wall-clock budget measured from `start`
/// (timeout_s <= 0 blocks forever, the historical behavior). Returns
/// bytes read or 0 on EOF; throws TimeoutError when the budget runs out
/// and util::Error on I/O failure.
long readBudgeted(int fd, char* buf, std::size_t n, double timeout_s,
                  std::chrono::steady_clock::time_point start,
                  const char* what) {
  if (timeout_s <= 0.0) {
    const long r = util::readSome(fd, buf, n);
    PRIO_CHECK_MSG(r >= 0, what << " read failed: " << std::strerror(errno));
    return r;
  }
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double left = timeout_s - elapsed;
    if (left <= 0.0) {
      throw TimeoutError(std::string(what) + " timed out after " +
                         std::to_string(timeout_s) + "s");
    }
    // Ceil to whole milliseconds so a sub-ms remainder still polls once
    // instead of busy-spinning with timeout 0.
    const int wait_ms = static_cast<int>(
        std::min(left * 1e3 + 1.0, 3600.0 * 1e3));
    const long r = util::readSomeTimed(fd, buf, n, wait_ms);
    if (r == util::kReadTimedOut) continue;  // loop re-checks the budget
    PRIO_CHECK_MSG(r >= 0, what << " read failed: " << std::strerror(errno));
    return r;
  }
}

/// ClientOptions::max_batch_payload with the 0-means-4x default
/// resolved (computed in 64 bits so a near-max cap saturates).
std::uint32_t resolvedBatchCap(const ClientOptions& options) {
  if (options.max_batch_payload != 0) return options.max_batch_payload;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::uint64_t{4} * options.max_payload, 0xffffffffull));
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(options),
      decoder_(options.max_payload, resolvedBatchCap(options)) {}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = connectWithRetry(host, port, options_);
}

void Client::close() {
  fd_.reset();
  decoder_ = FrameDecoder(options_.max_payload, resolvedBatchCap(options_));
}

std::uint64_t Client::send(const std::string& dag_text, std::uint64_t trace_id,
                           std::uint64_t request_id) {
  return sendFrame(FrameType::kRequest, PayloadKind::kDagmanText, dag_text,
                   trace_id, request_id);
}

std::uint64_t Client::sendPayload(PayloadKind kind, const std::string& payload,
                                  std::uint64_t trace_id,
                                  std::uint64_t request_id) {
  return sendFrame(FrameType::kRequest, kind, payload, trace_id, request_id);
}

std::uint64_t Client::submitBatch(const std::vector<BatchItem>& items,
                                  std::uint64_t trace_id,
                                  std::uint64_t request_id) {
  return sendFrame(FrameType::kBatchRequest, PayloadKind::kDagmanText,
                   encodeBatchRequest(items), trace_id, request_id);
}

std::uint64_t Client::sendFrame(FrameType type, PayloadKind kind,
                                const std::string& payload,
                                std::uint64_t trace_id,
                                std::uint64_t request_id) {
  PRIO_CHECK_MSG(fd_.valid(), "client is not connected");
  Frame frame;
  frame.type = type;
  frame.payload_kind = kind;
  frame.request_id = request_id != 0 ? request_id : next_request_id_++;
  frame.trace_id = trace_id;
  frame.tenant = options_.tenant;
  frame.deadline_ms = options_.deadline_ms;
  frame.payload = payload;
  std::string wire;
  encodeFrame(frame, wire,
              type == FrameType::kBatchRequest ? resolvedBatchCap(options_)
                                               : options_.max_payload);
  PRIO_CHECK_MSG(util::writeAll(fd_.get(), wire.data(), wire.size()),
                 "send to priod failed: " << std::strerror(errno));
  return frame.request_id;
}

Response Client::receive() {
  PRIO_CHECK_MSG(fd_.valid(), "client is not connected");
  const auto start = std::chrono::steady_clock::now();
  Frame frame;
  for (;;) {
    switch (decoder_.next(frame)) {
      case FrameDecoder::Result::kFrame: {
        PRIO_CHECK_MSG(frame.type == FrameType::kResponse ||
                           frame.type == FrameType::kBatchResponse,
                       "peer sent a request frame to a client");
        Response r;
        r.request_id = frame.request_id;
        r.status = frame.status;
        r.trace_id = frame.trace_id;
        r.tenant = frame.tenant;
        r.kind = frame.payload_kind;
        r.batch = frame.type == FrameType::kBatchResponse;
        r.payload = std::move(frame.payload);
        return r;
      }
      case FrameDecoder::Result::kError:
        PRIO_CHECK_MSG(false, "protocol error from priod: "
                                  << decoder_.error());
        break;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    const long r = readBudgeted(fd_.get(), buf, sizeof(buf),
                                options_.request_timeout_s, start,
                                "priod response");
    PRIO_CHECK_MSG(r > 0, "priod closed the connection mid-response");
    decoder_.feed(buf, static_cast<std::size_t>(r));
  }
}

Response::Result Response::result() const {
  Result r;
  r.status = status;
  if (!batch) {
    r.usable = (status == Status::kOk || status == Status::kDegraded) &&
               !payload.empty();
    return r;
  }
  // A batch frame with a non-kOk whole-frame status carries an error
  // message, not an envelope (the server's oversized downgrade answers
  // a plain kResponse, but stay defensive about the combination).
  if (status != Status::kOk) return r;
  std::string error;
  r.usable = decodeBatchResponse(payload, r.items, error);
  if (!r.usable) r.items.clear();
  return r;
}

Response Client::call(const std::string& dag_text) {
  if (options_.tracer == nullptr) {
    send(dag_text);
    return receive();
  }
  const obs::TraceContext trace = options_.tracer->beginTrace();
  obs::Span span(trace, "net.request");
  send(dag_text, trace.traceId());
  return receive();
}

namespace {

/// One throwaway HTTP/1.0 GET against the server's introspection
/// surface; returns the body without headers. With `http_status` null
/// any non-200 status throws; with it set the code is reported and the
/// body returned regardless.
std::string fetchHttpImpl(const std::string& host, std::uint16_t port,
                          const std::string& path,
                          const ClientOptions& options, int* http_status) {
  util::UniqueFd fd = connectWithRetry(host, port, options);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  PRIO_CHECK_MSG(util::writeAll(fd.get(), request.data(), request.size()),
                 path << " request failed: " << std::strerror(errno));
  const auto start = std::chrono::steady_clock::now();
  std::string response;
  char buf[64 * 1024];
  for (;;) {
    const long r = readBudgeted(fd.get(), buf, sizeof(buf),
                                options.request_timeout_s, start,
                                path.c_str());
    if (r == 0) break;
    response.append(buf, static_cast<std::size_t>(r));
  }
  const std::size_t header_end = response.find("\r\n\r\n");
  PRIO_CHECK_MSG(header_end != std::string::npos,
                 "malformed " << path << " response (no header terminator)");
  const std::string status_line = response.substr(0, response.find("\r\n"));
  // "HTTP/1.0 200 OK" — the code sits after the first space.
  int code = 0;
  const std::size_t sp = status_line.find(' ');
  if (sp != std::string::npos) {
    code = std::atoi(status_line.c_str() + sp + 1);
  }
  if (http_status != nullptr) {
    *http_status = code;
  } else {
    PRIO_CHECK_MSG(code == 200, path << " endpoint returned: " << status_line);
  }
  return response.substr(header_end + 4);
}

}  // namespace

std::string Client::fetchMetrics(const std::string& host, std::uint16_t port,
                                 ClientOptions options) {
  return fetchHttpImpl(host, port, "/metrics", options, nullptr);
}

std::string Client::fetchTenants(const std::string& host, std::uint16_t port,
                                 ClientOptions options) {
  return fetchHttpImpl(host, port, "/tenants", options, nullptr);
}

std::string Client::fetchHttp(const std::string& host, std::uint16_t port,
                              const std::string& path, ClientOptions options,
                              int* http_status) {
  return fetchHttpImpl(host, port, path, options, http_status);
}

}  // namespace prio::net
