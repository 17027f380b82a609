#ifndef PERFBENCH_TIMING_TRANSPORT_H_
#define PERFBENCH_TIMING_TRANSPORT_H_

// A net::Transport that times and captures what a RouterClient sends
// through the real transport it wraps. The caller marks each exchange with
// ExchangeLog::Begin; the wrapper records the first Write and the last
// Read, which split one RouterClient call into encode (call start to first
// Write), wait (first Write to last Read; everything on the wire) and
// decode (last Read to return). The three add up to the round trip.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/router_client.h"
#include "net/transport.h"

namespace perfbench {

/// One captured request/response pair on one shard connection.
struct CapturedExchange {
  uint32_t shard = 0;
  std::vector<uint8_t> request_frame;
  std::vector<uint8_t> response_frame;
};

/// Timing and capture state shared by the wrapped transports of one
/// RouterClient (one thread; not thread-safe).
class ExchangeLog {
 public:
  explicit ExchangeLog(size_t max_captures) : max_captures_(max_captures) {}

  /// Starts timing a new RouterClient call.
  void Begin() {
    first_write_ns_ = 0;
    last_read_ns_ = 0;
    capturing_ = captures_.size() < max_captures_;
    if (capturing_) captures_.emplace_back();
  }

  int64_t first_write_ns() const { return first_write_ns_; }
  int64_t last_read_ns() const { return last_read_ns_; }
  const std::vector<CapturedExchange>& captures() const { return captures_; }

 private:
  friend class TimingTransport;
  size_t max_captures_;
  bool capturing_ = false;
  int64_t first_write_ns_ = 0;
  int64_t last_read_ns_ = 0;
  std::vector<CapturedExchange> captures_;
};

class TimingTransport final : public sqp::net::Transport {
 public:
  TimingTransport(std::unique_ptr<sqp::net::Transport> inner, uint32_t shard,
                  ExchangeLog* log)
      : inner_(std::move(inner)), shard_(shard), log_(log) {}

  sqp::Status Write(std::span<const uint8_t> data) override;
  sqp::Result<size_t> Read(uint8_t* out, size_t max) override;
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<sqp::net::Transport> inner_;
  uint32_t shard_;
  ExchangeLog* log_;
};

/// Wraps every transport `inner` produces. `log` must outlive the router.
sqp::net::RouterClient::TransportFactory TimingTransportFactory(
    sqp::net::RouterClient::TransportFactory inner, ExchangeLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_TRANSPORT_H_
