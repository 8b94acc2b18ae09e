// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <list>
#include <thread>
#include <utility>
#include <vector>

namespace sos::serve {
namespace {

// Writes the whole buffer, retrying on EINTR / short writes.
bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Frame ErrorReply(StatusCode code) {
  Frame reply;
  reply.type = FrameType::kRead;  // designated error carrier
  reply.reply = true;
  reply.status = code;
  return reply;
}

}  // namespace

bool SosdServer::HandleFrame(const Frame& frame, std::vector<uint8_t>* reply_bytes) {
  if (frame.reply) {
    AppendFrame(*reply_bytes, ErrorReply(StatusCode::kInvalidArgument));
    return false;
  }

  Frame reply;
  reply.type = frame.type;
  reply.reply = true;
  reply.lba = frame.lba;
  reply.count = frame.count;

  switch (frame.type) {
    case FrameType::kOpenPlacement: {
      auto spec = DecodeSpec(frame.payload);
      if (!spec.ok()) {
        AppendFrame(*reply_bytes, ErrorReply(spec.status().code()));
        return false;
      }
      auto opened = service_->OpenPlacement(spec.value());
      reply.status = opened.ok() ? StatusCode::kOk : opened.status().code();
      reply.lba = opened.ok() ? opened.value().id() : 0;
      break;
    }
    case FrameType::kClosePlacement: {
      reply.status = service_->ClosePlacement(PlacementHandle(frame.handle_slot)).code();
      break;
    }
    case FrameType::kDescribePlacement: {
      ServeRequest req;
      req.op = ServeOp::kDescribePlacement;
      req.handle = PlacementHandle(frame.handle_slot);
      const ServeResponse resp = std::move(service_->Call({req}).front());
      reply.status = resp.status.code();
      if (resp.status.ok()) {
        reply.payload = EncodeSpec(resp.spec);
      }
      break;
    }
    case FrameType::kRead: {
      // Fan out per block; the service coalesces adjacent requests back into
      // one device ReadBatch.
      for (const ServeResponse& resp : service_->Call(PerBlockRequests(
               ServeOp::kRead, frame.lba, frame.count, PlacementHandle(frame.handle_slot)))) {
        if (!resp.status.ok() && reply.status == StatusCode::kOk) {
          reply.status = resp.status.code();
        }
        reply.degraded = reply.degraded || resp.degraded;
        reply.payload.insert(reply.payload.end(), resp.data.begin(), resp.data.end());
      }
      if (reply.status != StatusCode::kOk) {
        reply.payload.clear();
      }
      break;
    }
    case FrameType::kWrite: {
      if (frame.payload.empty() || frame.payload.size() % frame.count != 0) {
        AppendFrame(*reply_bytes, ErrorReply(StatusCode::kInvalidArgument));
        return false;
      }
      const size_t page = frame.payload.size() / frame.count;
      std::vector<ServeRequest> reqs = PerBlockRequests(ServeOp::kWrite, frame.lba, frame.count,
                                                        PlacementHandle(frame.handle_slot));
      for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].data.assign(frame.payload.begin() + static_cast<std::ptrdiff_t>(i * page),
                            frame.payload.begin() + static_cast<std::ptrdiff_t>((i + 1) * page));
      }
      for (const ServeResponse& resp : service_->Call(std::move(reqs))) {
        if (!resp.status.ok() && reply.status == StatusCode::kOk) {
          reply.status = resp.status.code();
        }
      }
      break;
    }
    case FrameType::kTrim:
    case FrameType::kFlush: {
      ServeRequest req;
      req.op = frame.type == FrameType::kTrim ? ServeOp::kTrim : ServeOp::kFlush;
      req.lba = frame.lba;
      reply.status = service_->Call({req}).front().status.code();
      break;
    }
  }
  AppendFrame(*reply_bytes, reply);
  return true;
}

uint64_t SosdServer::ServeConnection(int fd) {
  std::vector<uint8_t> buffer;
  uint64_t served = 0;
  uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return served;
    }
    if (n == 0) {
      return served;  // peer closed
    }
    buffer.insert(buffer.end(), chunk, chunk + n);
    // Drain every complete frame currently buffered.
    for (;;) {
      size_t consumed = 0;
      auto parsed = ParseFrame(buffer, &consumed);
      if (!parsed.ok()) {
        if (parsed.status().code() == StatusCode::kUnavailable) {
          break;  // incomplete; read more
        }
        std::vector<uint8_t> error_bytes;
        AppendFrame(error_bytes, ErrorReply(StatusCode::kInvalidArgument));
        WriteAll(fd, error_bytes);
        return served;  // malformed stream: close
      }
      buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(consumed));
      std::vector<uint8_t> reply_bytes;
      const bool keep_open = HandleFrame(parsed.value(), &reply_bytes);
      if (!WriteAll(fd, reply_bytes) || !keep_open) {
        return served;
      }
      ++served;
    }
  }
}

void SosdServer::ServeListener(int listen_fd, const std::atomic<bool>& stop) {
  // The listener owns each connection's fd and closes it only after joining
  // the thread, so the shutdown() below can never hit a recycled descriptor.
  struct Connection {
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Connection> connections;  // stable addresses: threads hold &conn
  const auto reap = [&connections](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (!all && !it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      ::close(it->fd);
      it = connections.erase(it);
    }
  };
  while (!stop.load(std::memory_order_relaxed)) {
    reap(/*all=*/false);  // a long-running daemon must not pile up dead threads
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      break;
    }
    Connection& conn = connections.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn] {
      ServeConnection(conn.fd);
      ::shutdown(conn.fd, SHUT_RDWR);  // the peer sees EOF now, not at the join
      conn.done.store(true, std::memory_order_release);
    });
  }
  // Ending the read side wakes threads blocked in read() on idle clients;
  // a request already being handled still gets its reply written.
  for (Connection& conn : connections) {
    ::shutdown(conn.fd, SHUT_RD);
  }
  reap(/*all=*/true);
}

}  // namespace sos::serve
