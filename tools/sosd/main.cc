// Copyright (c) 2026 The SOS Authors. MIT License.
//
// sosd: serves one simulated SosDevice over a unix-domain socket, speaking
// the length-prefixed block protocol of src/serve/wire.h.
//
//   sosd --socket=/tmp/sosd.sock [--blocks=N --wordlines=N --page-size=N]
//        [--seed=N] [--workers=N] [--depth=N] [--qos=on|off]
//
// Each connection gets its own service thread, which dispatches its own
// requests (AsyncBlockService::Call); all connections share the device
// through the service's gate, so concurrent clients see one consistent
// block space. SIGINT/SIGTERM stop the accept loop, drain in-flight
// requests, and remove the socket file. Stats go to stderr on
// exit (sim-time numbers; nothing here prints to stdout).

#include <csignal>
#include <cstdio>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/common/sim_clock.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/sos/sos_device.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  sos::FlagSet flags("sosd", "block-service daemon over a simulated SOS device");
  std::string* socket_path = flags.Path("socket", "unix socket path to listen on (required)");
  size_t* blocks = flags.Size("blocks", 512, "physical NAND blocks");
  size_t* wordlines = flags.Size("wordlines", 64, "wordlines per block");
  size_t* page_size = flags.Size("page-size", 4096, "page size in bytes");
  uint64_t* seed = flags.U64("seed", 1, "device RNG seed");
  size_t* workers = flags.Size("workers", 4,
                               "worker threads for Submit()-only callers (>= 1); "
                               "connections dispatch their own requests");
  size_t* depth = flags.Size("depth", 256, "submission queue depth");
  std::string* qos = flags.Enum("qos", "on", {"on", "off"}, "weighted per-class scheduling");
  flags.ParseOrDie(argc, argv);

  if (socket_path->empty()) {
    std::fprintf(stderr, "sosd: --socket is required\n%s", flags.Usage().c_str());
    return 2;
  }
  sockaddr_un addr{};
  if (socket_path->size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "sosd: socket path too long (max %zu bytes)\n",
                 sizeof(addr.sun_path) - 1);
    return 2;
  }

  sos::SimClock clock;
  sos::SosDeviceConfig config;
  config.nand.num_blocks = static_cast<uint32_t>(*blocks);
  config.nand.wordlines_per_block = static_cast<uint32_t>(*wordlines);
  config.nand.page_size_bytes = static_cast<uint32_t>(*page_size);
  config.nand.seed = *seed;
  sos::SosDevice device(config, &clock);

  sos::serve::ServeConfig serve_config;
  serve_config.workers = *workers == 0 ? 1 : *workers;  // async mode, never pump mode
  serve_config.submission_depth = *depth;
  serve_config.qos = *qos == "on";
  sos::serve::AsyncBlockService service(&device, &clock, serve_config);
  sos::serve::SosdServer server(&service);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("sosd: socket");
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path->c_str(), socket_path->size() + 1);
  ::unlink(socket_path->c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::perror("sosd: bind/listen");
    ::close(listen_fd);
    return 1;
  }

  struct sigaction action{};
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  std::fprintf(stderr, "[sosd] listening on %s (%zu workers, qos=%s, depth=%zu)\n",
               socket_path->c_str(), serve_config.workers, qos->c_str(), *depth);
  server.ServeListener(listen_fd, g_stop);

  ::close(listen_fd);
  ::unlink(socket_path->c_str());
  service.Shutdown();
  const sos::serve::ServeStats stats = service.Stats();
  std::fprintf(stderr,
               "[sosd] served %llu requests in %llu batches (%llu coalesced), sim time %llu us\n",
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.coalesced),
               static_cast<unsigned long long>(clock.now()));
  return 0;
}
