#include "comm/modeled.hpp"

#include <chrono>
#include <thread>

#include "obs/trace.hpp"

namespace of::comm {

ModeledLinkCommunicator::ModeledLinkCommunicator(Communicator& inner, LinkModel model,
                                                 DelayMode mode)
    : inner_(&inner), model_(model), mode_(mode) {}

void ModeledLinkCommunicator::delay_for(std::size_t bytes) {
  const double t = model_.transfer_seconds(bytes);
  modeled_delay_ += t;
  account_modeled(t);
  // arg carries the *modeled* delay in ns, whether or not it is slept.
  obs::instant(obs::Name::ModeledDelay, -1, 0,
               static_cast<std::uint64_t>(t * 1e9));
  if (mode_ == DelayMode::Sleep && t > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(t));
}

void ModeledLinkCommunicator::send_bytes(int dst, int tag, ConstByteSpan payload) {
  delay_for(payload.size());  // sender pays latency + serialization delay
  inner_->send_bytes(dst, tag, payload);
  account_send(payload.size());
}

Bytes ModeledLinkCommunicator::recv_bytes(int src, int tag) {
  Bytes b = inner_->recv_bytes(src, tag);
  account_recv(b.size());
  return b;
}

std::pair<int, Bytes> ModeledLinkCommunicator::recv_bytes_any(int tag) {
  auto [src, b] = inner_->recv_bytes_any(tag);
  account_recv(b.size());
  return {src, std::move(b)};
}

std::optional<std::pair<int, Bytes>> ModeledLinkCommunicator::try_recv_bytes_any(
    int tag, double timeout_seconds) {
  auto got = inner_->try_recv_bytes_any(tag, timeout_seconds);
  if (got) account_recv(got->second.size());
  return got;
}

}  // namespace of::comm
