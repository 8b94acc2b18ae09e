// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Block-service clients: the caller-side API benches and tests share.
//
// BlockServiceClient is the synchronous client contract; two transports
// implement it:
//   InProcessClient -- wraps an AsyncBlockService directly: every operation
//                      is one Call(), so the calling thread dispatches its
//                      own request in pump and async mode alike.
//   SocketClient    -- speaks the sosd wire protocol (wire.h) over a
//                      connected byte-stream fd, one outstanding request at
//                      a time.
// Code written against the interface runs unchanged in-process or against a
// live sosd, which is how the protocol conformance test cross-checks the
// two paths.

#ifndef SOS_SRC_SERVE_CLIENT_H_
#define SOS_SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/host/block_device.h"
#include "src/serve/service.h"
#include "src/serve/wire.h"

namespace sos::serve {

class BlockServiceClient {
 public:
  virtual ~BlockServiceClient() = default;

  [[nodiscard]] virtual Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) = 0;
  [[nodiscard]] virtual Status ClosePlacement(PlacementHandle handle) = 0;
  [[nodiscard]] virtual Result<PlacementSpec> DescribePlacement(PlacementHandle handle) = 0;

  // `handle` on Read is a QoS durability hint (it classifies the request);
  // the returned bytes come from wherever the device mapped the LBA.
  [[nodiscard]] virtual Status Write(uint64_t lba, std::span<const uint8_t> data,
                                     PlacementHandle handle) = 0;
  [[nodiscard]] virtual Result<BlockReadResult> Read(uint64_t lba,
                                                     PlacementHandle hint = {}) = 0;
  // Reads `count` consecutive blocks starting at `lba` in one logical call;
  // transports turn this into a coalescible batch.
  [[nodiscard]] virtual Result<std::vector<BlockReadResult>> ReadBatch(
      uint64_t lba, uint32_t count, PlacementHandle hint = {}) = 0;
  [[nodiscard]] virtual Status Trim(uint64_t lba) = 0;
  [[nodiscard]] virtual Status Flush() = 0;
};

class InProcessClient final : public BlockServiceClient {
 public:
  // `service` must outlive the client.
  explicit InProcessClient(AsyncBlockService* service) : service_(service) {}

  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override;
  [[nodiscard]] Status ClosePlacement(PlacementHandle handle) override;
  [[nodiscard]] Result<PlacementSpec> DescribePlacement(PlacementHandle handle) override;
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data,
                             PlacementHandle handle) override;
  [[nodiscard]] Result<BlockReadResult> Read(uint64_t lba, PlacementHandle hint) override;
  [[nodiscard]] Result<std::vector<BlockReadResult>> ReadBatch(uint64_t lba, uint32_t count,
                                                               PlacementHandle hint) override;
  [[nodiscard]] Status Trim(uint64_t lba) override;
  [[nodiscard]] Status Flush() override;

  AsyncBlockService* service() { return service_; }

 private:
  // One request through AsyncBlockService::Call().
  ServeResponse Roundtrip(ServeRequest req);

  AsyncBlockService* const service_;
};

class SocketClient final : public BlockServiceClient {
 public:
  // Takes ownership of the connected fd (closed on destruction).
  explicit SocketClient(int fd) : fd_(fd) {}
  ~SocketClient() override;

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override;
  [[nodiscard]] Status ClosePlacement(PlacementHandle handle) override;
  [[nodiscard]] Result<PlacementSpec> DescribePlacement(PlacementHandle handle) override;
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data,
                             PlacementHandle handle) override;
  [[nodiscard]] Result<BlockReadResult> Read(uint64_t lba, PlacementHandle hint) override;
  [[nodiscard]] Result<std::vector<BlockReadResult>> ReadBatch(uint64_t lba, uint32_t count,
                                                               PlacementHandle hint) override;
  [[nodiscard]] Status Trim(uint64_t lba) override;
  [[nodiscard]] Status Flush() override;

 private:
  // One request frame out, one reply frame back. kUnavailable when the
  // connection drops mid-exchange.
  Result<Frame> Roundtrip(const Frame& request);

  int fd_;
  std::vector<uint8_t> buffer_;  // bytes read past the last parsed reply
};

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_CLIENT_H_
