#include "timing_transport.h"

#include <utility>

#include "trace.h"

namespace perfbench {

sqp::Status TimingTransport::Write(std::span<const uint8_t> data) {
  if (log_->first_write_ns_ == 0) log_->first_write_ns_ = NowNs();
  if (log_->capturing_) {
    CapturedExchange& capture = log_->captures_.back();
    capture.shard = shard_;
    capture.request_frame.insert(capture.request_frame.end(), data.begin(),
                                 data.end());
  }
  return inner_->Write(data);
}

sqp::Result<size_t> TimingTransport::Read(uint8_t* out, size_t max) {
  sqp::Result<size_t> read = inner_->Read(out, max);
  log_->last_read_ns_ = NowNs();
  if (read.ok() && log_->capturing_) {
    std::vector<uint8_t>& frame = log_->captures_.back().response_frame;
    frame.insert(frame.end(), out, out + *read);
  }
  return read;
}

sqp::net::RouterClient::TransportFactory TimingTransportFactory(
    sqp::net::RouterClient::TransportFactory inner, ExchangeLog* log) {
  return [inner = std::move(inner), log](uint32_t shard)
             -> sqp::Result<std::unique_ptr<sqp::net::Transport>> {
    sqp::Result<std::unique_ptr<sqp::net::Transport>> made = inner(shard);
    if (!made.ok()) return made.status();
    return std::unique_ptr<sqp::net::Transport>(
        std::make_unique<TimingTransport>(std::move(made.value()), shard,
                                          log));
  };
}

}  // namespace perfbench
