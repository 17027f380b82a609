#ifndef SQP_NET_LOOPBACK_TRANSPORT_H_
#define SQP_NET_LOOPBACK_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/request_handler.h"
#include "net/transport.h"
#include "net/wire_format.h"
#include "serve/recommender_engine.h"

namespace sqp::net {

/// The embedded half of the transport seam: an in-process connection to
/// one shard engine. Bytes written are reassembled into request frames
/// (through the same FrameAssembler the TCP server uses), served through
/// a ShardRequestHandler on the calling thread, and the encoded response
/// bytes become what Read() returns. Chunked or byte-at-a-time writes
/// are handled exactly like a socket would deliver them — the only thing
/// loopback skips is the kernel.
///
/// Not thread-safe; a router uses each transport from one thread at a
/// time, which is the contract TcpTransport has too.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(const RecommenderEngine* engine, uint64_t fleet_version)
      : handler_(engine, fleet_version) {}

  Status Write(std::span<const uint8_t> data) override;
  Result<size_t> Read(uint8_t* out, size_t max) override;
  void Close() override { closed_ = true; }

 private:
  ShardRequestHandler handler_;
  FrameAssembler assembler_;
  std::deque<uint8_t> outbox_;
  bool closed_ = false;
};

/// RouterClient transport factory over per-shard engines: shard `s`
/// connects to `shard_engines[s]` in-process. The engines must outlive
/// every transport the factory produces.
std::function<Result<std::unique_ptr<Transport>>(uint32_t)>
LoopbackTransportFactory(std::vector<const RecommenderEngine*> shard_engines,
                         uint64_t fleet_version);

}  // namespace sqp::net

#endif  // SQP_NET_LOOPBACK_TRANSPORT_H_
