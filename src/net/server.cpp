#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <list>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/admission.h"
#include "net/poller.h"
#include "net/wakeup.h"
#include "obs/metrics.h"
#include "tenant/fair_queue.h"
#include "util/check.h"
#include "util/socket.h"

namespace prio::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 256;

Status toWireStatus(service::RequestStatus s) {
  switch (s) {
    case service::RequestStatus::kOk: return Status::kOk;
    case service::RequestStatus::kDegraded: return Status::kDegraded;
    case service::RequestStatus::kRejected: return Status::kRejected;
    case service::RequestStatus::kShed: return Status::kShed;
    case service::RequestStatus::kFailed: return Status::kFailed;
    case service::RequestStatus::kExpired: return Status::kExpired;
  }
  return Status::kFailed;
}

/// A reply's payload: the output when usable, otherwise its error text
/// (or the status name when it has none).
std::string replyText(service::Reply& reply, Status status) {
  if (reply.status == service::RequestStatus::kOk ||
      reply.status == service::RequestStatus::kDegraded) {
    return std::move(reply.output);
  }
  return reply.error.empty() ? std::string(statusName(status))
                             : std::move(reply.error);
}

/// The net and service PayloadKind enums mirror each other by value;
/// these keep the cast in one audited place.
service::PayloadKind toServiceKind(PayloadKind k) {
  return k == PayloadKind::kBinaryCsr ? service::PayloadKind::kBinaryCsr
                                      : service::PayloadKind::kDagmanText;
}

PayloadKind toWireKind(service::PayloadKind k) {
  return k == service::PayloadKind::kBinaryCsr ? PayloadKind::kBinaryCsr
                                               : PayloadKind::kDagmanText;
}

/// The owned service's config with the server's tenant registry patched
/// in, so the work queue is the weighted-fair queue keyed by frame
/// tenant ids.
service::ServiceConfig withTenantRegistry(service::ServiceConfig config,
                                          tenant::TenantRegistry* registry) {
  config.tenants = registry;
  return config;
}

/// ServerConfig::reactors resolved to the shard count actually run.
std::size_t resolveReactors(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw / 2 : 1;
}

/// A bound, listening, non-blocking IPv4 socket. Throws util::Error on
/// any failure.
util::UniqueFd makeListener(const std::string& bind_address,
                            std::uint16_t port, bool reuseport) {
  util::UniqueFd fd = util::socketCloexec(AF_INET, SOCK_STREAM, 0);
  PRIO_CHECK_MSG(fd.valid(), "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
    PRIO_CHECK_MSG(::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                                sizeof(one)) == 0,
                   "setsockopt(SO_REUSEPORT): " << std::strerror(errno));
  }

  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  PRIO_CHECK_MSG(
      ::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) == 1,
      "bad bind address " << bind_address);
  PRIO_CHECK_MSG(::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind " << bind_address << ":" << port << ": "
                         << std::strerror(errno));
  PRIO_CHECK_MSG(::listen(fd.get(), kListenBacklog) == 0,
                 "listen: " << std::strerror(errno));
  PRIO_CHECK(util::setNonBlocking(fd.get()));
  return fd;
}

std::uint16_t localPort(int fd) {
  struct sockaddr_in bound {};
  socklen_t len = sizeof(bound);
  PRIO_CHECK(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                           &len) == 0);
  return ntohs(bound.sin_port);
}

}  // namespace

struct Server::Impl {
  /// A decoded request frame on its way through admission. A batch
  /// envelope is decoded once, on arrival, into `items`.
  struct Pending {
    Frame frame;
    std::vector<BatchItem> items;
    /// Absolute wire-deadline expiry on the nowSeconds() clock (0 = the
    /// frame carries no deadline).
    double expiry_s = 0.0;
  };

  struct Connection {
    std::uint64_t id = 0;
    util::UniqueFd fd;
    FrameDecoder decoder;
    std::string out;
    std::size_t out_pos = 0;
    /// Protocol sniffing: kUnknown until the first bytes arrive; "GET "
    /// selects kHttp, anything else the binary framing.
    enum class Mode { kUnknown, kFraming, kHttp } mode = Mode::kUnknown;
    std::string http_buf;
    std::size_t in_flight = 0;
    /// One request parked by a kBlock admission denial; reads stay
    /// paused until it dispatches or expires.
    std::optional<Pending> parked;
    bool paused = false;   ///< read interest withdrawn (gate / drain)
    bool closing = false;  ///< close once `out` flushes
    /// The (read, write) interest registered with the poller, so a flush
    /// that leaves it unchanged costs no epoll_ctl.
    bool interest_read = true;
    bool interest_write = false;
    Clock::time_point last_activity;
    /// Position on the owning shard's LRU list (always valid while the
    /// connection lives): front = least recently active, so the idle
    /// reaper pops cold connections without scanning warm ones.
    std::list<Connection*>::iterator lru_it;

    [[nodiscard]] bool wantWrite() const { return out_pos < out.size(); }
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::uint32_t tenant = 0;
    /// True when the request was a kBatchRequest: the reply's items are
    /// re-encoded as a kBatchResponse envelope.
    bool batch = false;
    service::Reply reply;
  };

  /// One reactor: an event-loop thread and everything it owns
  /// exclusively — poller, listener (or hand-off inbox), connection
  /// tables, LRU list, buffers, completion queue, wakeup fd. Only
  /// completions_/inbox_ (mutex) and parked_frames_/accepted_ (atomic)
  /// are ever touched by another thread.
  struct Shard {
    Shard(Impl* impl, std::size_t index)
        : impl(impl), index(index), next_conn_id_(index + 1) {}

    Impl* impl;
    std::size_t index = 0;
    /// Valid on every shard under SO_REUSEPORT; only on shard 0 in
    /// hand-off mode.
    util::UniqueFd listen_fd_;
    Wakeup wake_;
    Poller poller_;

    /// Ids stride by the shard count so they are unique without
    /// coordination (shard i mints i+1, i+1+N, ...).
    std::uint64_t next_conn_id_;
    std::unordered_map<int, std::unique_ptr<Connection>> conns_by_fd_;
    std::unordered_map<std::uint64_t, Connection*> conns_by_id_;
    /// Intrusive LRU: every live connection is on it, coldest first.
    std::list<Connection*> lru_;
    /// Requests dispatched by this shard whose completions have not yet
    /// drained (loop-thread only; includes completions for connections
    /// that died, which still owe the tenant a recordReply).
    std::size_t outstanding_ = 0;
    /// Written by the loop thread; read by sibling shards deciding whom
    /// to wake and by /readyz.
    std::atomic<std::size_t> parked_frames_{0};
    /// Connections adopted by this shard (Stats::shard_connections).
    std::atomic<std::uint64_t> accepted_{0};
    /// Hand-off round-robin cursor (used only by the accepting shard).
    std::size_t rr_next_ = 0;

    bool draining_ = false;
    Clock::time_point drain_deadline_{};

    std::mutex completions_mu_;
    std::vector<Completion> completions_;

    /// Descriptors dealt to this shard by the accepting shard (hand-off
    /// mode only).
    std::mutex inbox_mu_;
    std::vector<util::UniqueFd> inbox_;

    // ----------------------------------------------------------- loop

    void loop() {
      if (listen_fd_.valid()) {
        poller_.add(listen_fd_.get(), /*read=*/true, /*write=*/false);
      }
      poller_.add(wake_.fd(), /*read=*/true, /*write=*/false);

      std::vector<Poller::Event> events;
      while (true) {
        // Finer ticks only when a timer could fire; otherwise wakes
        // come from sockets and the wakeup fd. A parked frame counts as
        // a timer: its tenant's token bucket refills with wall time, so
        // the retry in resumePaused() must not wait for socket traffic.
        const int timeout_ms =
            (impl->config_.idle_timeout_s > 0.0 || draining_ ||
             parked_frames_.load(std::memory_order_relaxed) > 0)
                ? 50
                : 1000;
        events.clear();
        poller_.wait(events, timeout_ms);
        const Clock::time_point wake = Clock::now();

        for (const Poller::Event& e : events) {
          if (e.fd == wake_.fd()) {
            if (wake_.drain() > 0) impl->wakeups_drained.add();
          } else if (listen_fd_.valid() && e.fd == listen_fd_.get()) {
            if (!draining_) acceptAll();
          } else {
            // The connection may have been closed by an earlier event
            // in this same batch.
            auto it = conns_by_fd_.find(e.fd);
            if (it == conns_by_fd_.end()) continue;
            Connection* conn = it->second.get();
            if (e.error) {
              closeConn(conn);
              continue;
            }
            if (e.writable && !flushConn(conn)) continue;
            if (e.readable) handleRead(conn);
          }
        }

        adoptInbox();
        drainCompletions();
        if (!draining_ &&
            parked_frames_.load(std::memory_order_relaxed) > 0) {
          resumePaused();
        }
        if (impl->config_.idle_timeout_s > 0.0 && !draining_) closeIdle();

        if (impl->stop_requested_.load(std::memory_order_relaxed) &&
            !draining_) {
          beginDrain();
        }
        if (draining_ && drainComplete()) break;

        // Watchdog: how long this iteration kept the loop away from
        // poll. A stalled loop can't flush replies or accept
        // connections, so the worst gap across shards is the liveness
        // number an operator should alarm on.
        const auto stall_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - wake)
                .count();
        impl->loop_stall_max_us.setMax(static_cast<std::uint64_t>(stall_us));
      }

      // Point-of-no-return cleanup: anything still connected is dropped.
      for (auto& [fd, conn] : conns_by_fd_) poller_.remove(fd);
      if (!conns_by_fd_.empty()) {
        impl->open_conns_.fetch_sub(conns_by_fd_.size(),
                                    std::memory_order_relaxed);
      }
      conns_by_fd_.clear();
      conns_by_id_.clear();
      lru_.clear();
      dropInbox();
    }

    // ---------------------------------------------------- connections

    void acceptAll() {
      for (;;) {
        const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
        if (raw < 0) {
          if (errno == EINTR) continue;
          return;  // EAGAIN or transient accept failure: try next round
        }
        util::UniqueFd fd(raw);
        // The connection cap is global; the atomic reservation makes it
        // exact even with every shard accepting at once.
        if (impl->open_conns_.fetch_add(1, std::memory_order_relaxed) >=
            impl->config_.max_connections) {
          impl->open_conns_.fetch_sub(1, std::memory_order_relaxed);
          impl->connections_refused.add();
          continue;  // fd closes on scope exit
        }
        util::setCloexec(fd.get());
        if (!util::setNonBlocking(fd.get())) {
          impl->open_conns_.fetch_sub(1, std::memory_order_relaxed);
          impl->connections_refused.add();
          continue;
        }
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        impl->connections_accepted.add();

        if (!impl->reuseport_ && impl->num_shards_ > 1) {
          // Hand-off fallback: deal round-robin (deterministic — tests
          // rely on the order), keeping every Nth for ourselves.
          Shard& target = *impl->shards_[rr_next_++ % impl->num_shards_];
          if (&target != this) {
            target.pushHandoff(std::move(fd));
            continue;
          }
        }
        adopt(std::move(fd));
      }
    }

    /// Takes ownership of an accepted, non-blocking descriptor already
    /// counted in open_conns_.
    void adopt(util::UniqueFd fd) {
      auto conn = std::make_unique<Connection>();
      conn->id = next_conn_id_;
      next_conn_id_ += impl->num_shards_;
      conn->fd = std::move(fd);
      conn->decoder =
          FrameDecoder(impl->config_.max_payload, impl->max_batch_payload_);
      conn->last_activity = Clock::now();
      poller_.add(conn->fd.get(), /*read=*/true, /*write=*/false);
      conn->lru_it = lru_.insert(lru_.end(), conn.get());
      accepted_.fetch_add(1, std::memory_order_relaxed);
      conns_by_id_[conn->id] = conn.get();
      const int cfd = conn->fd.get();
      conns_by_fd_[cfd] = std::move(conn);
      impl->connections_open.set(
          impl->open_conns_.load(std::memory_order_relaxed));
    }

    /// Called by the accepting shard's thread.
    void pushHandoff(util::UniqueFd fd) {
      {
        std::lock_guard<std::mutex> lock(inbox_mu_);
        inbox_.push_back(std::move(fd));
      }
      impl->signalShard(*this);
    }

    void adoptInbox() {
      // Handed off just as the stop landed: close unserved.
      if (draining_) return dropInbox();
      std::vector<util::UniqueFd> batch;
      {
        std::lock_guard<std::mutex> lock(inbox_mu_);
        if (inbox_.empty()) return;
        batch.swap(inbox_);
      }
      for (util::UniqueFd& fd : batch) adopt(std::move(fd));
    }

    void dropInbox() {
      std::vector<util::UniqueFd> batch;
      {
        std::lock_guard<std::mutex> lock(inbox_mu_);
        batch.swap(inbox_);
      }
      for (util::UniqueFd& fd : batch) {
        impl->open_conns_.fetch_sub(1, std::memory_order_relaxed);
        impl->connections_closed.add();
        fd.reset();
      }
    }

    /// Refreshes activity and moves the connection to the warm end of
    /// the LRU list (O(1) splice).
    void touch(Connection* conn) {
      conn->last_activity = Clock::now();
      lru_.splice(lru_.end(), lru_, conn->lru_it);
    }

    void closeConn(Connection* conn) {
      if (conn->parked.has_value()) {
        parked_frames_.fetch_sub(1, std::memory_order_relaxed);
      }
      lru_.erase(conn->lru_it);
      poller_.remove(conn->fd.get());
      conns_by_id_.erase(conn->id);
      impl->connections_closed.add();
      conns_by_fd_.erase(conn->fd.get());  // destroys conn, closes fd
      impl->open_conns_.fetch_sub(1, std::memory_order_relaxed);
      impl->connections_open.set(
          impl->open_conns_.load(std::memory_order_relaxed));
    }

    void updateInterest(Connection* conn) {
      const bool read = !conn->paused && !conn->closing && !draining_;
      const bool write = conn->wantWrite();
      if (read == conn->interest_read && write == conn->interest_write) {
        return;
      }
      conn->interest_read = read;
      conn->interest_write = write;
      poller_.update(conn->fd.get(), read, write);
      impl->interest_updates.add();
    }

    /// Flushes buffered output. False when the connection was closed.
    bool flushConn(Connection* conn) {
      bool progressed = false;
      while (conn->wantWrite()) {
        const long w =
            util::writeSome(conn->fd.get(), conn->out.data() + conn->out_pos,
                            conn->out.size() - conn->out_pos);
        if (w < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (progressed) touch(conn);
            updateInterest(conn);
            return true;
          }
          closeConn(conn);
          return false;
        }
        conn->out_pos += static_cast<std::size_t>(w);
        progressed = true;
      }
      conn->out.clear();
      conn->out_pos = 0;
      if (conn->closing) {
        closeConn(conn);
        return false;
      }
      if (progressed) touch(conn);
      updateInterest(conn);
      return true;
    }

    void handleRead(Connection* conn) {
      char buf[kReadChunk];
      for (;;) {
        const long r = util::readSome(conn->fd.get(), buf, sizeof(buf));
        if (r < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          closeConn(conn);
          return;
        }
        if (r == 0) {
          // EOF. Any in-flight replies have nowhere to go; dropping the
          // connection now makes their completions no-ops.
          closeConn(conn);
          return;
        }
        touch(conn);
        if (conn->mode == Connection::Mode::kUnknown) {
          sniffProtocol(conn, buf, static_cast<std::size_t>(r));
        }
        if (conn->mode == Connection::Mode::kHttp) {
          conn->http_buf.append(buf, static_cast<std::size_t>(r));
          if (!maybeServeHttp(conn)) return;
        } else {
          conn->decoder.feed(buf, static_cast<std::size_t>(r));
          if (!processFrames(conn)) return;
        }
        // Gate full, or a one-shot (HTTP / protocol-error) response is
        // queued: leave the rest unread so it cannot re-trigger
        // handling.
        if (conn->paused) return;
      }
    }

    void sniffProtocol(Connection* conn, const char* data, std::size_t n) {
      // Enough bytes always arrive at once in practice; a frame's first
      // byte is 0x50 ('P'), so a 1-byte "G" prefix is also decisive.
      conn->mode = (n > 0 && data[0] == 'G') ? Connection::Mode::kHttp
                                             : Connection::Mode::kFraming;
    }

    /// Serves the /metrics snapshot once the request head is complete.
    /// False when the connection was closed.
    bool maybeServeHttp(Connection* conn) {
      if (conn->http_buf.find("\r\n\r\n") == std::string::npos &&
          conn->http_buf.find("\n\n") == std::string::npos) {
        if (conn->http_buf.size() > 64 * 1024) {
          closeConn(conn);
          return false;
        }
        return true;
      }
      impl->http_requests.add();
      std::istringstream head(conn->http_buf);
      std::string method, path;
      head >> method >> path;
      std::string body;
      std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
      const char* status_line;
      if (method == "GET" && (path == "/metrics" || path == "/metrics/")) {
        std::ostringstream out;
        impl->writeMetricsText(out);
        body = std::move(out).str();
        status_line = "HTTP/1.0 200 OK";
      } else if (method == "GET" &&
                 (path == "/tenants" || path == "/tenants/")) {
        std::ostringstream out;
        impl->writeTenantsJson(out);
        body = std::move(out).str();
        content_type = "application/json";
        status_line = "HTTP/1.0 200 OK";
      } else if (method == "GET" &&
                 (path == "/healthz" || path == "/healthz/")) {
        // Liveness: answering at all proves this shard's loop turns.
        body = "ok\n";
        status_line = "HTTP/1.0 200 OK";
      } else if (method == "GET" &&
                 (path == "/readyz" || path == "/readyz/")) {
        // Readiness: live AND able to admit a request right now, across
        // every shard (gate and drain state are global). Reported 503 so
        // load balancers need no body parsing.
        const std::size_t in_flight = impl->admission_.inFlight();
        const bool gate_full = in_flight >= impl->admission_.capacity();
        const bool draining =
            draining_ || impl->stop_requested_.load(std::memory_order_relaxed);
        const bool ready = !draining && !gate_full;
        std::size_t parked = 0;
        for (const auto& shard : impl->shards_) {
          parked += shard->parked_frames_.load(std::memory_order_relaxed);
        }
        std::ostringstream out;
        out << "{\"ready\":" << (ready ? "true" : "false")
            << ",\"draining\":" << (draining ? "true" : "false")
            << ",\"in_flight\":" << in_flight
            << ",\"max_in_flight\":" << impl->admission_.capacity()
            << ",\"parked\":" << parked
            << ",\"reactors\":" << impl->num_shards_ << "}\n";
        body = std::move(out).str();
        content_type = "application/json";
        status_line =
            ready ? "HTTP/1.0 200 OK" : "HTTP/1.0 503 Service Unavailable";
      } else {
        body =
            "only GET /metrics, /tenants, /healthz, and /readyz are served "
            "here\n";
        status_line = "HTTP/1.0 404 Not Found";
      }
      conn->out.append(status_line);
      conn->out.append("\r\nContent-Type: " + content_type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n");
      conn->out.append(body);
      conn->closing = true;
      conn->paused = true;
      updateInterest(conn);
      return flushConn(conn);
    }

    /// Decodes frames and hands each to admitOrPark() until the buffer
    /// runs dry, a denial parks the connection, or a protocol error ends
    /// it. False when the connection was closed.
    bool processFrames(Connection* conn) {
      while (!conn->paused && !draining_) {
        Pending p;
        Frame& frame = p.frame;
        switch (conn->decoder.next(frame)) {
          case FrameDecoder::Result::kNeedMore:
            return true;
          case FrameDecoder::Result::kError:
            impl->protocol_errors.add();
            conn->closing = true;
            conn->paused = true;
            return answer(conn, Status::kProtocolError, 0, 0,
                          conn->decoder.error());
          case FrameDecoder::Result::kFrame:
            break;
        }
        if (frame.type != FrameType::kRequest &&
            frame.type != FrameType::kBatchRequest) {
          impl->protocol_errors.add();
          conn->closing = true;
          conn->paused = true;
          return answer(conn, Status::kProtocolError, frame.request_id, 0,
                        "expected a request frame");
        }
        impl->frames_received.add();
        if (frame.type == FrameType::kBatchRequest) {
          // Decode the envelope before admission: the framing is intact,
          // so a malformed envelope is a content error — answer kFailed
          // and keep the connection, without holding a slot.
          std::string env_err;
          if (!decodeBatchRequest(frame.payload, impl->config_.max_payload,
                                  p.items, env_err)) {
            if (!answer(conn, Status::kFailed, frame.request_id,
                        frame.tenant, std::move(env_err))) {
              return false;
            }
            continue;
          }
          frame.payload = {};  // the items own the bytes now
        }
        const double now_s = impl->nowSeconds();
        if (frame.deadline_ms > 0) {
          p.expiry_s = now_s + static_cast<double>(frame.deadline_ms) / 1e3;
        }
        if (!admitOrPark(conn, std::move(p), now_s)) return false;
      }
      return true;
    }

    /// The one admission routine, for fresh and parked requests alike
    /// (DESIGN.md §11 "Backpressure mapping"): a request whose wire
    /// deadline is spent is answered kExpired without being admitted;
    /// otherwise it dispatches, is answered kRejected (kReject), or
    /// parks and pauses the connection (kBlock). False when the
    /// connection was closed.
    bool admitOrPark(Connection* conn, Pending p, double now_s) {
      const Frame& frame = p.frame;
      if (p.expiry_s > 0.0 && now_s >= p.expiry_s) {
        impl->requests_expired.add();
        impl->registry_.recordExpired(frame.tenant);
        return answer(conn, Status::kExpired, frame.request_id, frame.tenant,
                      "deadline expired before admission");
      }
      const Admission::Verdict verdict =
          impl->admission_.tryAdmit(frame.tenant, now_s);
      if (verdict == Admission::Verdict::kAdmitted) {
        dispatch(conn, std::move(p), now_s);
        return true;
      }
      if (impl->config_.service.backpressure ==
          service::BackpressurePolicy::kReject) {
        (verdict == Admission::Verdict::kGateFull ? impl->gate_rejected
                                                  : impl->tenant_rejected)
            .add();
        impl->registry_.recordRejected(frame.tenant);
        return answer(conn, Status::kRejected, frame.request_id, frame.tenant,
                      Admission::reason(verdict));
      }
      // kBlock: park the request and stop reading this connection; the
      // unread bytes stay in the kernel buffer and TCP flow control
      // pushes back on the client. resumePaused() retries every tick and
      // whenever a sibling shard frees gate slots.
      conn->parked = std::move(p);
      parked_frames_.fetch_add(1, std::memory_order_relaxed);
      if (!conn->paused) {  // a retried request is paused already
        conn->paused = true;
        updateInterest(conn);
      }
      return true;
    }

    /// Writes one reply frame and flushes it. Every reply the server
    /// sends goes through here, so responses_sent counts all of them.
    /// False when the connection was closed.
    bool answer(Connection* conn, Frame resp) {
      const std::uint32_t cap = resp.type == FrameType::kBatchResponse
                                    ? impl->max_batch_payload_
                                    : impl->config_.max_payload;
      if (resp.payload.size() > cap) {
        // The instrumented output always outgrows its input, so a valid
        // request near the cap can yield an unencodable reply; answer
        // kFailed instead of letting encodeFrame throw out of the loop.
        impl->responses_oversized.add();
        const std::size_t size = resp.payload.size();
        resp.type = FrameType::kResponse;
        resp.payload_kind = PayloadKind::kDagmanText;
        resp.status = Status::kFailed;
        resp.payload = "response of ";
        resp.payload += std::to_string(size);
        resp.payload += " bytes exceeds the ";
        resp.payload += std::to_string(cap);
        resp.payload += "-byte frame cap";
        if (resp.payload.size() > cap) resp.payload.resize(cap);
      }
      encodeFrame(resp, conn->out, cap);
      impl->responses_sent.add();
      return flushConn(conn);
    }

    bool answer(Connection* conn, Status status, std::uint64_t request_id,
                std::uint32_t tenant, std::string text) {
      Frame resp;
      resp.type = FrameType::kResponse;
      resp.status = status;
      resp.request_id = request_id;
      resp.tenant = tenant;
      resp.payload = std::move(text);
      return answer(conn, std::move(resp));
    }

    /// Submits an admitted request to the service; its completion
    /// releases the admission slot when it drains.
    void dispatch(Connection* conn, Pending p, double now_s) {
      // The wire budget, net of any time spent parked (floored at 1 ms
      // so the service still sees and expires a nonzero deadline),
      // becomes the service-side budget: spent in the work queue the
      // request answers kExpired, and the remainder tightens the compute
      // CancelToken.
      const double deadline_s =
          p.expiry_s > 0.0 ? std::max(1e-3, p.expiry_s - now_s) : 0.0;
      const Frame& frame = p.frame;
      const bool batch = frame.type == FrameType::kBatchRequest;
      auto complete = [shard = this, conn_id = conn->id,
                       request_id = frame.request_id, tenant = frame.tenant,
                       batch](service::Reply reply) {
        {
          std::lock_guard<std::mutex> lock(shard->completions_mu_);
          shard->completions_.push_back(Completion{
              conn_id, request_id, tenant, batch, std::move(reply)});
        }
        shard->impl->signalShard(*shard);
      };
      ++conn->in_flight;
      ++outstanding_;
      impl->requests_in_flight.set(impl->admission_.inFlight());
      const auto submit = [&](auto request) {
        request.trace_id = frame.trace_id;
        request.tenant = frame.tenant;
        request.deadline_s = deadline_s;
        impl->service_.submitCallback(std::move(request), std::move(complete));
      };
      if (batch) {
        service::BatchRequest request;
        request.items.reserve(p.items.size());
        for (BatchItem& item : p.items) {
          request.items.push_back(service::Payload{
              toServiceKind(item.kind), std::move(item.bytes)});
        }
        submit(std::move(request));
      } else {
        service::Request request;
        request.payload.kind = toServiceKind(frame.payload_kind);
        request.payload.bytes = std::move(p.frame.payload);
        submit(std::move(request));
      }
    }

    void drainCompletions() {
      std::vector<Completion> batch;
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        batch.swap(completions_);
      }
      if (batch.empty()) return;
      for (Completion& c : batch) {
        --outstanding_;
        // Free the slot and account the reply to its tenant even when
        // the connection died — the work was done either way.
        impl->admission_.release(c.tenant, c.reply.status, c.reply.cache_hit,
                                 c.reply.latency_s);
        auto it = conns_by_id_.find(c.conn_id);
        if (it == conns_by_id_.end()) {
          impl->responses_dropped.add();
          continue;
        }
        Connection* conn = it->second;
        --conn->in_flight;
        if (c.reply.status == service::RequestStatus::kExpired) {
          impl->requests_expired.add();
        }
        Frame resp;
        resp.tenant = c.tenant;
        resp.status = toWireStatus(c.reply.status);
        resp.request_id = c.request_id;
        resp.trace_id = c.reply.trace_id;
        if (c.batch) {
          // Re-encode the per-item replies as a kBatchResponse envelope,
          // in request order. Failures degrade per item.
          resp.type = FrameType::kBatchResponse;
          std::vector<BatchItemReply> item_replies;
          item_replies.reserve(c.reply.items.size());
          for (service::Reply& item : c.reply.items) {
            const Status status = toWireStatus(item.status);
            item_replies.push_back(
                {status, toWireKind(item.output_kind),
                 replyText(item, status)});
          }
          resp.payload = encodeBatchResponse(item_replies);
        } else {
          resp.type = FrameType::kResponse;
          resp.payload_kind = toWireKind(c.reply.output_kind);
          resp.payload = replyText(c.reply, resp.status);
        }
        answer(conn, std::move(resp));
      }
      impl->requests_in_flight.set(impl->admission_.inFlight());
      // The slots just released may be exactly what a sibling's parked
      // frame is waiting for; don't leave the unpark to the 50ms tick.
      impl->wakeParkedSiblings(this);
    }

    /// Retries admission for every parked request. Checked per
    /// connection, not globally — one tenant stuck on an empty token
    /// bucket must not stall other tenants' connections behind it. A
    /// connection whose request left the parking lot resumes: buffered
    /// frames first, then socket reads.
    void resumePaused() {
      // Ids, not iterators: processFrames() can close connections,
      // which erases from the map being walked.
      std::vector<std::uint64_t> paused;
      for (const auto& [fd, conn] : conns_by_fd_) {
        if (conn->paused && !conn->closing) paused.push_back(conn->id);
      }
      for (const std::uint64_t id : paused) {
        auto it = conns_by_id_.find(id);
        if (it == conns_by_id_.end()) continue;
        Connection* conn = it->second;
        if (conn->parked.has_value()) {
          Pending p = std::move(*conn->parked);
          conn->parked.reset();
          // Still counted while the retry runs, so a sibling that frees
          // a slot meanwhile wakes this shard for another try.
          const bool open = admitOrPark(conn, std::move(p), impl->nowSeconds());
          parked_frames_.fetch_sub(1, std::memory_order_relaxed);
          if (!open || conn->parked.has_value()) continue;
        }
        conn->paused = false;
        updateInterest(conn);
        processFrames(conn);
      }
    }

    /// O(expired): pops connections off the cold end of the LRU list
    /// until one inside the idle window appears. A connection that is
    /// expired but waiting on the server (paused, in-flight reply,
    /// unflushed output) is touched instead of closed — server-side
    /// wait counts as activity, and touching moves it off the cold end
    /// so it is not rescanned this pass.
    void closeIdle() {
      const auto cutoff =
          Clock::now() - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 impl->config_.idle_timeout_s));
      while (!lru_.empty()) {
        Connection* conn = lru_.front();
        if (!(conn->last_activity < cutoff)) break;
        if (conn->paused || conn->in_flight > 0 || conn->wantWrite()) {
          touch(conn);
          continue;
        }
        impl->connections_idle_closed.add();
        closeConn(conn);
      }
    }

    void beginDrain() {
      draining_ = true;
      drain_deadline_ =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 impl->config_.drain_timeout_s));
      if (listen_fd_.valid()) poller_.remove(listen_fd_.get());
      dropInbox();
      for (auto& [fd, conn] : conns_by_fd_) updateInterest(conn.get());
    }

    [[nodiscard]] bool drainComplete() {
      if (Clock::now() >= drain_deadline_) return true;
      if (outstanding_ != 0) return false;
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        if (!completions_.empty()) return false;
      }
      for (const auto& [fd, conn] : conns_by_fd_) {
        if (conn->wantWrite()) return false;
      }
      return true;
    }
  };

  explicit Impl(const ServerConfig& config)
      : config_(config),
        connections_accepted(net_registry_.counter("connections_accepted")),
        connections_closed(net_registry_.counter("connections_closed")),
        connections_idle_closed(
            net_registry_.counter("connections_idle_closed")),
        connections_refused(net_registry_.counter("connections_refused")),
        frames_received(net_registry_.counter("frames_received")),
        responses_sent(net_registry_.counter("responses_sent")),
        responses_dropped(net_registry_.counter("responses_dropped")),
        responses_oversized(net_registry_.counter("responses_oversized")),
        protocol_errors(net_registry_.counter("protocol_errors")),
        gate_rejected(net_registry_.counter("gate_rejected")),
        tenant_rejected(net_registry_.counter("tenant_rejected")),
        requests_expired(net_registry_.counter("requests_expired")),
        http_requests(net_registry_.counter("http_requests")),
        wakeups_signaled(net_registry_.counter("wakeups_signaled")),
        wakeups_drained(net_registry_.counter("wakeups_drained")),
        interest_updates(net_registry_.counter("interest_updates")),
        connections_open(net_registry_.gauge("connections_open")),
        requests_in_flight(net_registry_.gauge("requests_in_flight")),
        loop_stall_max_us(net_registry_.gauge("loop_stall_max_us")),
        registry_(config.tenant_defaults),
        admission_(config.max_in_flight, config.service, registry_),
        service_(withTenantRegistry(config.service, &registry_)) {
    for (const auto& [id, tenant_config] : config_.tenants) {
      registry_.configure(id, tenant_config);
    }
    // Batch envelopes may deliberately exceed the single-dag frame cap;
    // 0 defaults to 4x (computed in 64 bits so a near-max cap saturates
    // instead of wrapping).
    max_batch_payload_ = config_.max_batch_payload;
    if (max_batch_payload_ == 0) {
      max_batch_payload_ = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(std::uint64_t{4} * config_.max_payload,
                                  0xffffffffull));
    }

    num_shards_ = resolveReactors(config_.reactors);
    shards_.reserve(num_shards_);
    for (std::size_t i = 0; i < num_shards_; ++i) {
      shards_.push_back(std::make_unique<Shard>(this, i));
    }

    // Listener-per-shard via SO_REUSEPORT when asked; otherwise one
    // listener on shard 0 and the hand-off deal.
    reuseport_ = config_.use_reuseport && num_shards_ > 1;
    shards_[0]->listen_fd_ =
        makeListener(config_.bind_address, config_.port, reuseport_);
    bound_port_ = localPort(shards_[0]->listen_fd_.get());
    if (reuseport_) {
      for (std::size_t i = 1; i < num_shards_; ++i) {
        shards_[i]->listen_fd_ =
            makeListener(config_.bind_address, bound_port_, true);
      }
    }
  }

  // ------------------------------------------------------------- run

  void run() {
    std::vector<std::thread> threads;
    threads.reserve(num_shards_ - 1);
    for (std::size_t i = 1; i < num_shards_; ++i) {
      threads.emplace_back([this, i] { runShard(*shards_[i]); });
    }
    runShard(*shards_[0]);
    for (std::thread& t : threads) t.join();
    connections_open.set(0);
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(run_error_mu_);
      err = run_error_;
      run_error_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
  }

  void runShard(Shard& shard) {
    try {
      shard.loop();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(run_error_mu_);
        if (!run_error_) run_error_ = std::current_exception();
      }
      requestStop();  // tear the sibling shards down gracefully
    }
  }

  void requestStop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
    // Async-signal-safe: one non-blocking write per shard on
    // pre-opened fds (plus lock-free counter bumps).
    for (const auto& shard : shards_) signalShard(*shard);
  }

  // ---------------------------------------------------------- wakeups

  void signalShard(Shard& shard) noexcept {
    wakeups_signaled.add();
    shard.wake_.signal();
  }

  void wakeParkedSiblings(Shard* self) {
    if (num_shards_ == 1) return;
    for (const auto& shard : shards_) {
      if (shard.get() == self) continue;
      if (shard->parked_frames_.load(std::memory_order_relaxed) > 0) {
        signalShard(*shard);
      }
    }
  }

  [[nodiscard]] double nowSeconds() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  // ------------------------------------------------------ inspection

  /// Registry snapshot with each tenant's live fair-queue depth filled
  /// in (the registry itself never sees queue contents).
  [[nodiscard]] std::vector<tenant::TenantSnapshot> tenantSnapshots() {
    std::vector<tenant::TenantSnapshot> snaps = registry_.snapshot();
    if (const tenant::FairQueue* fq = service_.fairQueue()) {
      for (tenant::TenantSnapshot& s : snaps) s.queued = fq->queuedFor(s.id);
    }
    return snaps;
  }

  void writeMetricsText(std::ostream& out) {
    service_.writePrometheusText(out);
    net_registry_.snapshot().writePrometheus(out, "prio_net_");
    out << "# HELP prio_net_shard_connections Connections adopted per "
           "reactor shard.\n"
           "# TYPE prio_net_shard_connections gauge\n";
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      out << "prio_net_shard_connections{shard=\"" << i << "\"} "
          << shards_[i]->accepted_.load(std::memory_order_relaxed) << "\n";
    }
    tenant::writeTenantsPrometheus(out, tenantSnapshots());
  }

  void writeTenantsJson(std::ostream& out) {
    tenant::writeTenantsJson(out, tenantSnapshots());
  }

  // ------------------------------------------------------------ state

  ServerConfig config_;
  obs::Registry net_registry_;
  obs::Counter& connections_accepted;
  obs::Counter& connections_closed;
  obs::Counter& connections_idle_closed;
  obs::Counter& connections_refused;
  obs::Counter& frames_received;
  obs::Counter& responses_sent;
  obs::Counter& responses_dropped;
  obs::Counter& responses_oversized;
  obs::Counter& protocol_errors;
  obs::Counter& gate_rejected;
  obs::Counter& tenant_rejected;
  obs::Counter& requests_expired;  ///< answered kExpired on the wire
  obs::Counter& http_requests;
  obs::Counter& wakeups_signaled;  ///< signal() calls across all shards
  obs::Counter& wakeups_drained;   ///< drains that consumed >= 1 signal
  obs::Counter& interest_updates;  ///< epoll_ctl(MOD) calls on connections
  obs::Gauge& connections_open;
  obs::Gauge& requests_in_flight;
  /// Event-loop watchdog: the worst observed gap (µs) any shard's loop
  /// spent away from poll — i.e. how long a reply could sit unserved
  /// because a loop thread was busy. Exported as
  /// prio_net_loop_stall_max_us.
  obs::Gauge& loop_stall_max_us;

  /// Resolved payload cap for kBatchRequest frames (never 0; see
  /// ServerConfig::max_batch_payload).
  std::uint32_t max_batch_payload_ = kMaxPayload;
  std::size_t num_shards_ = 1;
  bool reuseport_ = false;  ///< one SO_REUSEPORT listener per shard
  std::uint16_t bound_port_ = 0;

  /// Live connections across all shards (including handed-off fds not
  /// yet adopted) — the max_connections reservation counter.
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<bool> stop_requested_{false};

  /// Epoch of nowSeconds(), the clock admission and parked-frame
  /// expiry run on (monotonic seconds).
  const Clock::time_point epoch_ = Clock::now();

  std::mutex run_error_mu_;
  std::exception_ptr run_error_;

  /// Stable once constructed (unique_ptr contents never move): worker
  /// completion callbacks and requestStop() hold Shard pointers.
  /// Declared before service_ so the shards (and their wakeup fds)
  /// outlive the workers that signal them.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Tenant policies and accounting (internally synchronized — every
  /// shard admits through it). Declared before (so destroyed after) the
  /// service, whose fair queue reads weights from it until the workers
  /// join.
  tenant::TenantRegistry registry_;
  /// The gate plus the tenant stage, shared by every shard.
  Admission admission_;
  /// Declared last so it is destroyed first: the destructor joins the
  /// workers while the shards their completion callbacks signal are
  /// still alive.
  service::PrioService service_;
};

Server::Server(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->bound_port_; }

std::size_t Server::reactors() const { return impl_->num_shards_; }

bool Server::usingReuseport() const { return impl_->reuseport_; }

void Server::run() { impl_->run(); }

void Server::requestStop() noexcept { impl_->requestStop(); }

service::PrioService& Server::service() { return impl_->service_; }
const service::PrioService& Server::service() const {
  return impl_->service_;
}

void Server::writeMetricsText(std::ostream& out) {
  impl_->writeMetricsText(out);
}

void Server::writeTenantsJson(std::ostream& out) {
  impl_->writeTenantsJson(out);
}

tenant::TenantRegistry& Server::tenants() { return impl_->registry_; }
const tenant::TenantRegistry& Server::tenants() const {
  return impl_->registry_;
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = impl_->connections_accepted.get();
  s.connections_closed = impl_->connections_closed.get();
  s.connections_idle_closed = impl_->connections_idle_closed.get();
  s.connections_refused = impl_->connections_refused.get();
  s.frames_received = impl_->frames_received.get();
  s.responses_sent = impl_->responses_sent.get();
  s.responses_dropped = impl_->responses_dropped.get();
  s.responses_oversized = impl_->responses_oversized.get();
  s.protocol_errors = impl_->protocol_errors.get();
  s.gate_rejected = impl_->gate_rejected.get();
  s.tenant_rejected = impl_->tenant_rejected.get();
  s.requests_expired = impl_->requests_expired.get();
  s.http_requests = impl_->http_requests.get();
  s.wakeups_signaled = impl_->wakeups_signaled.get();
  s.wakeups_drained = impl_->wakeups_drained.get();
  s.interest_updates = impl_->interest_updates.get();
  s.loop_stall_max_us = impl_->loop_stall_max_us.get();
  s.shard_connections.reserve(impl_->shards_.size());
  for (const auto& shard : impl_->shards_) {
    s.shard_connections.push_back(
        shard->accepted_.load(std::memory_order_relaxed));
  }
  return s;
}

}  // namespace net
