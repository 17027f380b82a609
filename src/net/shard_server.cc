#include "net/shard_server.h"

#include <cerrno>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/snapshot_io.h"
#include "net/wire_format.h"

namespace sqp::net {
namespace {

/// Per-connection state: reassembly of the inbound stream and the
/// outbound bytes not yet accepted by the socket.
struct Connection {
  explicit Connection(OwnedFd fd) : fd(std::move(fd)) {}
  OwnedFd fd;
  FrameAssembler assembler;
  std::vector<uint8_t> out;
  size_t out_pos = 0;

  bool has_pending_out() const { return out_pos < out.size(); }
};

}  // namespace

ShardServer::ShardServer(ShardServerOptions options)
    : options_(std::move(options)) {}

ShardServer::~ShardServer() { Stop(); }

Status ShardServer::StartFromManifest(const std::string& manifest_path,
                                      uint32_t shard_index) {
  if (handler_) return Status::FailedPrecondition("server already started");
  auto manifest = SnapshotIo::LoadRoutableManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  if (shard_index >= manifest->num_shards()) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(shard_index) + " out of range for " +
        std::to_string(manifest->num_shards()) + "-shard manifest");
  }
  auto mapped = SnapshotIo::MapShard(*manifest, manifest_path, shard_index);
  if (!mapped.ok()) return mapped.status();
  auto listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  SQP_RETURN_IF_ERROR(SetNonBlocking(listener->get()));
  auto port = BoundPort(listener->get());
  if (!port.ok()) return port.status();
  OwnedFd wake(::eventfd(0, EFD_NONBLOCK));
  if (!wake.valid()) return Status::IOError("eventfd failed");

  // Every fallible step is behind us: only now does the server take on
  // state, so a failed start leaves it startable.
  owned_engine_ = std::make_unique<RecommenderEngine>(options_.engine);
  owned_engine_->Publish(std::move(mapped.value()));
  fleet_version_ = manifest->version;
  fleet_num_shards_ = manifest->num_shards();
  shard_index_ = shard_index;
  handler_ = std::make_unique<ShardRequestHandler>(
      owned_engine_.get(), fleet_version_, options_.feedback);
  listener_ = std::move(*listener);
  wake_ = std::move(wake);
  port_ = *port;
  stopping_.store(false, std::memory_order_relaxed);
  loop_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void ShardServer::Stop() {
  if (!loop_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_.get(), &one, sizeof(one));
  loop_.join();
  listener_.Reset();
  wake_.Reset();
}

void ShardServer::EventLoop() {
  OwnedFd epoll(::epoll_create1(0));
  if (!epoll.valid()) return;
  auto add = [&](int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &ev);
  };
  auto mod = [&](int fd, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epoll.get(), EPOLL_CTL_MOD, fd, &ev);
  };
  add(listener_.get(), EPOLLIN);
  add(wake_.get(), EPOLLIN);

  std::unordered_map<int, Connection> conns;
  auto close_conn = [&](int fd, bool dropped) {
    ::epoll_ctl(epoll.get(), EPOLL_CTL_DEL, fd, nullptr);
    conns.erase(fd);
    if (dropped) {
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Writes as much of conn.out as the socket accepts; toggles EPOLLOUT
  // interest to match what is left. Returns false when the peer died.
  auto flush = [&](Connection& conn) {
    while (conn.has_pending_out()) {
      ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_pos,
                         conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      conn.out_pos += static_cast<size_t>(n);
    }
    if (!conn.has_pending_out()) {
      conn.out.clear();
      conn.out_pos = 0;
      mod(conn.fd.get(), EPOLLIN);
    } else {
      mod(conn.fd.get(), EPOLLIN | EPOLLOUT);
    }
    return true;
  };

  std::vector<epoll_event> events(64);
  std::vector<uint8_t> rdbuf(64 * 1024);
  std::vector<uint8_t> body, response;
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll.get(), events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_.get()) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r = ::read(wake_.get(), &drain, sizeof(drain));
        continue;
      }
      if (fd == listener_.get()) {
        while (true) {
          auto accepted = AcceptTcp(listener_.get());
          if (!accepted.ok()) break;
          int cfd = accepted->get();
          if (!SetNonBlocking(cfd).ok()) continue;
          conns.emplace(cfd, Connection(std::move(*accepted)));
          add(cfd, EPOLLIN);
          connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      auto it = conns.find(fd);
      if (it == conns.end()) continue;
      Connection& conn = it->second;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        close_conn(fd, false);
        continue;
      }
      bool closed = false;
      if (ev & EPOLLIN) {
        while (true) {
          ssize_t r = ::recv(fd, rdbuf.data(), rdbuf.size(), 0);
          if (r < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            close_conn(fd, false);
            closed = true;
            break;
          }
          if (r == 0) {  // peer closed
            close_conn(fd, false);
            closed = true;
            break;
          }
          if (!conn.assembler
                   .Feed({rdbuf.data(), static_cast<size_t>(r)})
                   .ok()) {
            close_conn(fd, true);
            closed = true;
            break;
          }
          bool poisoned = false;
          while (true) {
            FrameHeader header;
            bool ready = false;
            if (!conn.assembler.Next(&header, &body, &ready).ok()) {
              poisoned = true;
              break;
            }
            if (!ready) break;
            if (header.type != FrameType::kRequest ||
                !handler_->HandleRequest(body, &response).ok()) {
              poisoned = true;
              break;
            }
            conn.out.insert(conn.out.end(), response.begin(), response.end());
            frames_served_.fetch_add(1, std::memory_order_relaxed);
          }
          if (poisoned) {
            close_conn(fd, true);
            closed = true;
            break;
          }
        }
      }
      if (closed) continue;
      if (!flush(conn)) close_conn(fd, false);
    }
  }
}

ShardServerStats ShardServer::stats() const {
  ShardServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_dropped = connections_dropped_.load(std::memory_order_relaxed);
  s.frames_served = frames_served_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sqp::net
