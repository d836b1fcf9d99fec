#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/file.h"

namespace lahar {
namespace net {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Server::Server(StreamRuntime* runtime, ServerOptions options)
    : runtime_(runtime), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  // Every failure below must release whatever fds were already opened
  // (Stop() won't: started_ is still false on these paths).
  auto fail = [this](Status s) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
    listen_fd_ = wake_rd_ = wake_wr_ = -1;
    return s;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad host address: " + options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Errno("bind " + options_.host + ":" +
                      std::to_string(options_.port)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) < 0) {
    return fail(Errno("listen"));
  }
  if (Status s = SetNonBlocking(listen_fd_); !s.ok()) {
    return fail(std::move(s));
  }

  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    return fail(Errno("pipe"));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  if (Status s = SetNonBlocking(wake_rd_); !s.ok()) return fail(std::move(s));
  if (Status s = SetNonBlocking(wake_wr_); !s.ok()) return fail(std::move(s));

  // The coordinator hands each published snapshot to the server thread and
  // rings the self-pipe; the optional on_tick hook (periodic checkpoints)
  // then runs on the coordinator with no locks held, exactly like a
  // directly-installed tick callback would. The callback captures the
  // channel by shared_ptr, not `this`: an invocation copied out of the
  // slot may still be running after Stop() clears the slot, and must not
  // touch freed server state or a closed pipe fd (see TickChannel).
  channel_ = std::make_shared<TickChannel>();
  channel_->wake_wr = wake_wr_;
  runtime_->SetTickCallback(
      [channel = channel_, on_tick = options_.on_tick](const TickResult& r) {
        // Copy the snapshot: the coordinator publishes a whole window of
        // ticks back to back, and Latest() only points at the newest one.
        {
          std::lock_guard<std::mutex> lock(channel->mu);
          const bool was_empty = channel->snapshots.empty();
          channel->snapshots.push_back(std::make_shared<TickResult>(r));
          // Ring the self-pipe only on the empty->non-empty edge: the
          // server loop drains the whole deque per wake, so one byte
          // covers every tick of a window instead of W pipe writes per
          // window (the pipe would also fill at high tick rates).
          if (was_empty && channel->wake_wr >= 0) {
            char b = 1;
            [[maybe_unused]] ssize_t n = ::write(channel->wake_wr, &b, 1);
          }
        }
        if (on_tick) on_tick(r);
      });

  stop_.store(false);
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  runtime_->SetTickCallback(nullptr);
  stop_.store(true);
  char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
  if (thread_.joinable()) thread_.join();
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  conns_.clear();
  // Invalidate the pipe fd under the channel mutex before closing it: a
  // tick-callback invocation already copied out of the slot may still be
  // running, and it only writes the pipe while wake_wr >= 0 under `mu`.
  {
    std::lock_guard<std::mutex> lock(channel_->mu);
    channel_->wake_wr = -1;
    channel_->snapshots.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  listen_fd_ = wake_rd_ = wake_wr_ = -1;
  started_ = false;
  std::lock_guard<std::mutex> lock(stats_mu_);
  counters_.connections = 0;
  counters_.subscriptions = 0;
}

NetStats Server::NetCounters() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  NetStats out = counters_;
  out.tenants.assign(tenant_counters_.begin(), tenant_counters_.end());
  return out;
}

RuntimeStats Server::Stats() const {
  RuntimeStats out = runtime_->Stats();
  out.net = NetCounters();
  return out;
}

TenantQuota Server::QuotaFor(const std::string& tenant) const {
  auto it = options_.tenant_quotas.find(tenant);
  return it != options_.tenant_quotas.end() ? it->second
                                            : options_.default_quota;
}

void Server::Loop() {
  std::vector<pollfd> fds;
  while (!stop_.load()) {
    fds.clear();
    fds.push_back(pollfd{wake_rd_, POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& c : conns_) {
      short events = c->doomed ? 0 : POLLIN;
      if (!c->outbound.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c->fd, events, 0});
    }
    int rc = ::poll(fds.data(), fds.size(),
                    static_cast<int>(options_.poll_interval.count()));
    if (stop_.load()) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed; nothing sane left to do
    }

    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
      }
    }
    // Fan out every queued snapshot (even when the wake byte raced poll).
    while (true) {
      std::shared_ptr<const TickResult> snap;
      {
        std::lock_guard<std::mutex> lock(channel_->mu);
        if (channel_->snapshots.empty()) break;
        snap = std::move(channel_->snapshots.front());
        channel_->snapshots.pop_front();
      }
      FanOut(*snap);
    }

    // Service connections before accepting: fds[i + 2] mirrors conns_[i]
    // only for the connections that existed when fds was built, and
    // erasure is deferred to `dead` so indices stay stable.
    const size_t polled = fds.size() - 2;
    std::vector<size_t> dead;
    for (size_t i = 0; i < polled; ++i) {
      Connection* c = conns_[i].get();
      short re = fds[i + 2].revents;
      if (re & (POLLERR | POLLHUP | POLLNVAL)) {
        dead.push_back(i);
        continue;
      }
      if (re & POLLOUT) ServiceWrite(c);
      if (!c->doomed && (re & POLLIN)) ServiceRead(c);
      if (c->fd < 0 || (c->doomed && c->outbound.empty())) dead.push_back(i);
    }
    for (size_t j = dead.size(); j > 0; --j) CloseConnection(dead[j - 1]);

    if (fds[1].revents & POLLIN) AcceptNew();
  }
}

void Server::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try again next poll
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_unique<Connection>();
    c->fd = fd;
    c->last_refill = std::chrono::steady_clock::now();
    if (conns_.size() >= options_.max_connections) {
      // Over the cap: one error frame, then a doomed connection that
      // closes as soon as the frame flushes.
      SendError(c.get(), WireError::kServerFull, "connection limit reached");
      c->doomed = true;
    }
    conns_.push_back(std::move(c));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.total_connections;
    counters_.connections = conns_.size();
  }
}

void Server::CloseConnection(size_t index) {
  Connection* c = conns_[index].get();
  size_t subs = c->subs.size();
  if (c->fd >= 0) ::close(c->fd);
  conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(index));
  std::lock_guard<std::mutex> lock(stats_mu_);
  counters_.connections = conns_.size();
  counters_.subscriptions -= std::min(counters_.subscriptions, subs);
}

void Server::ServiceWrite(Connection* c) {
  while (!c->outbound.empty()) {
    ssize_t n = ::send(c->fd, c->outbound.data(), c->outbound.size(),
                       MSG_NOSIGNAL);
    if (n > 0) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        counters_.bytes_out += static_cast<uint64_t>(n);
      }
      c->outbound.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // Hard write error: drop the connection.
    ::close(c->fd);
    c->fd = -1;
    return;
  }
}

bool Server::Enqueue(Connection* c, std::string frame) {
  if (c->fd < 0) return false;
  if (c->outbound.size() + frame.size() > options_.outbound_buffer_limit) {
    // Slow consumer: its buffer is full and another frame is due. Keeping
    // the connection would make its lag our memory; drop it instead.
    // Count before close: a peer observes EOF the instant the fd closes,
    // and may read the stats right then.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.slow_disconnects;
    }
    ::close(c->fd);
    c->fd = -1;
    return false;
  }
  c->outbound += frame;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.frames_out;
  }
  // Opportunistic flush: most frames fit the socket buffer, so this keeps
  // latency at one syscall instead of one poll cycle.
  ServiceWrite(c);
  return true;
}

void Server::SendError(Connection* c, WireError code,
                       std::string_view message) {
  serial::Writer w;
  EncodeError(code, message, &w);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.protocol_errors;
  }
  Enqueue(c, EncodeFrame(MsgType::kError, w));
}

void Server::ServiceRead(Connection* c) {
  char buf[16384];
  while (true) {
    ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        counters_.bytes_in += static_cast<uint64_t>(n);
      }
      c->reader.Append(std::string_view(buf, static_cast<size_t>(n)));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error.
    ::close(c->fd);
    c->fd = -1;
    return;
  }
  while (c->fd >= 0 && !c->doomed) {
    Frame frame;
    Status s = c->reader.Next(&frame);
    if (s.code() == StatusCode::kNotFound) break;  // need more bytes
    if (!s.ok()) {
      // Framing violation: the stream cannot be resynchronized. One last
      // error frame, then close once it flushes.
      SendError(c, WireError::kBadFrame, s.message());
      c->doomed = true;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.frames_in;
    }
    Dispatch(c, frame);
  }
}

void Server::Dispatch(Connection* c, const Frame& frame) {
  if (frame.version != kProtocolVersion) {
    SendError(c, WireError::kVersionMismatch,
              "protocol version " + std::to_string(frame.version) +
                  " != server version " + std::to_string(kProtocolVersion));
    return;
  }
  serial::Reader r(frame.body);
  switch (frame.msg_type()) {
    case MsgType::kHello: {
      std::string tenant;
      if (Status s = DecodeHello(&r, &tenant); !s.ok()) {
        SendError(c, WireError::kBadFrame, s.message());
        return;
      }
      c->tenant = tenant.empty() ? "default" : tenant;
      c->hello_done = true;
      c->quota = QuotaFor(c->tenant);
      c->tokens = c->quota.burst;
      c->last_refill = std::chrono::steady_clock::now();
      serial::Writer w;
      w.U8(kProtocolVersion);
      Enqueue(c, EncodeFrame(MsgType::kHelloOk, w));
      return;
    }
    case MsgType::kIngest:
      HandleIngest(c, frame);
      return;
    case MsgType::kRegister: {
      serial::Reader rr(frame.body);
      std::string text;
      if (Status s = rr.Str(&text); !s.ok()) {
        SendError(c, WireError::kBadFrame, s.message());
        return;
      }
      auto id = runtime_->Register(text);
      if (!id.ok()) {
        SendError(c, WireError::kRejected, id.status().ToString());
        return;
      }
      // Pull class/engine for the one query just registered; the client
      // prints it the way lahar_cli --serve does.
      RegisteredBody body;
      body.id = *id;
      if (auto qs = runtime_->QuerySnapshot(*id); qs.ok()) {
        body.query_class = qs->query_class;
        body.engine = qs->engine;
        body.exact = qs->exact;
      }
      serial::Writer w;
      EncodeRegistered(body, &w);
      Enqueue(c, EncodeFrame(MsgType::kRegistered, w));
      return;
    }
    case MsgType::kUnregister: {
      QueryId id = 0;
      if (Status s = r.U64(&id); !s.ok()) {
        SendError(c, WireError::kBadFrame, s.message());
        return;
      }
      if (Status s = runtime_->Unregister(id); !s.ok()) {
        SendError(c, WireError::kRejected, s.ToString());
        return;
      }
      // The query is gone for everyone: drop its subscription from every
      // connection (the server thread owns them all), not just the
      // requester's, so the subscription counter can't stay inflated.
      size_t removed = 0;
      for (auto& cp : conns_) removed += cp->subs.erase(id);
      if (removed > 0) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        counters_.subscriptions -=
            std::min(counters_.subscriptions, removed);
      }
      Enqueue(c, EncodeFrame(MsgType::kOk));
      return;
    }
    case MsgType::kSubscribe: {
      QueryId id = 0;
      if (Status s = r.U64(&id); !s.ok()) {
        SendError(c, WireError::kBadFrame, s.message());
        return;
      }
      if (!runtime_->HasQuery(id)) {
        SendError(c, WireError::kRejected,
                  "no standing query with id " + std::to_string(id));
        return;
      }
      if (c->subs.insert(id).second) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.subscriptions;
      }
      Enqueue(c, EncodeFrame(MsgType::kOk));
      return;
    }
    case MsgType::kUnsubscribe: {
      QueryId id = 0;
      if (Status s = r.U64(&id); !s.ok()) {
        SendError(c, WireError::kBadFrame, s.message());
        return;
      }
      if (c->subs.erase(id) > 0) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        --counters_.subscriptions;
      }
      Enqueue(c, EncodeFrame(MsgType::kOk));
      return;
    }
    case MsgType::kStats: {
      serial::Writer w;
      w.Str(Stats().ToJson());
      Enqueue(c, EncodeFrame(MsgType::kStatsResult, w));
      return;
    }
    case MsgType::kCheckpoint: {
      if (options_.checkpoint_path.empty()) {
        SendError(c, WireError::kRejected, "no checkpoint path configured");
        return;
      }
      auto snapshot = runtime_->Checkpoint();
      if (!snapshot.ok()) {
        SendError(c, WireError::kRejected, snapshot.status().ToString());
        return;
      }
      // Durable before replying: the kCheckpointOk frame promises the
      // bytes are on disk, and a client may read the file the moment it
      // sees the reply. A failed write leaves the previous checkpoint.
      if (Status s = WriteFileAtomic(options_.checkpoint_path, *snapshot);
          !s.ok()) {
        SendError(c, WireError::kRejected, s.ToString());
        return;
      }
      CheckpointOkBody body;
      body.path = options_.checkpoint_path;
      body.bytes = snapshot->size();
      serial::Writer w;
      EncodeCheckpointOk(body, &w);
      Enqueue(c, EncodeFrame(MsgType::kCheckpointOk, w));
      return;
    }
    default:
      SendError(c, WireError::kUnknownType,
                "unknown message type " + std::to_string(frame.type));
      return;
  }
}

void Server::HandleIngest(Connection* c, const Frame& frame) {
  serial::Reader r(frame.body);
  TickBatch batch;
  if (Status s = DecodeBatch(&r, &batch); !s.ok()) {
    SendError(c, WireError::kBadFrame, s.message());
    return;
  }
  if (!c->hello_done) {
    // Admission control is per-tenant; an ingest before kHello has no
    // tenant to charge, so it is rejected rather than sneaking past quotas.
    SendError(c, WireError::kHandshake, "kHello required before ingest");
    return;
  }
  if (c->quota.burst > 0) {
    auto now = std::chrono::steady_clock::now();
    double elapsed = std::chrono::duration<double>(now - c->last_refill).count();
    c->last_refill = now;
    c->tokens = std::min(c->quota.burst,
                         c->tokens + elapsed * c->quota.refill_per_sec);
    if (c->tokens < 1.0) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.quota_rejected;
        ++tenant_counters_[c->tenant].quota_rejected;
      }
      SendError(c, WireError::kQuotaExceeded,
                "tenant '" + c->tenant + "' over ingest quota");
      return;
    }
    c->tokens -= 1.0;
  }
  if (!runtime_->ingest().TryPush(std::move(batch))) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.backpressure_rejected;
    }
    SendError(c, WireError::kBackpressure,
              runtime_->ingest().closed() ? "ingest queue closed"
                                          : "ingest queue full; retry");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++tenant_counters_[c->tenant].ingest_frames;
  }
  Enqueue(c, EncodeFrame(MsgType::kOk));
}

void Server::FanOut(const TickResult& result) {
  for (auto& cp : conns_) {
    Connection* c = cp.get();
    if (c->fd < 0 || c->doomed || c->subs.empty()) continue;
    TickUpdateBody body;
    body.t = result.t;
    for (QueryId id : c->subs) {
      if (const double* p = result.Find(id)) body.probs.emplace_back(id, *p);
    }
    if (body.probs.empty()) continue;
    serial::Writer w;
    EncodeTickUpdate(body, &w);
    Enqueue(c, EncodeFrame(MsgType::kTickUpdate, w));
  }
}

}  // namespace net
}  // namespace lahar
