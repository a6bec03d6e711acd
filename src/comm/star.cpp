#include "comm/star.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/check.hpp"

namespace of::comm::star {

StreamingGather gather_bytes_streaming(Communicator& c, const Bytes& b,
                                       const FrameSink& sink,
                                       const PartialGatherOptions& opt) {
  using clock = std::chrono::steady_clock;
  OF_CHECK_MSG(opt.min_clients >= 0 && opt.min_clients < c.world_size(),
               "partial gather quorum " << opt.min_clients << " out of range for world size "
                                        << c.world_size());
  const int tag = c.claim_collective_tag();
  StreamingGather out;
  if (c.rank() != 0) {
    c.send_bytes(0, tag, b);
    return out;
  }

  std::set<int> pending;
  for (int p = 1; p < c.world_size(); ++p) pending.insert(p);

  // Drain frames that are already queued before judging liveness: on the
  // final round a fast client sends its update and exits, and its EOF can
  // reach the event loop before this gather starts — the update is sitting
  // in the inbox while peer_alive() already says dead. Data first, then the
  // verdict.
  while (!pending.empty()) {
    auto queued = c.try_recv_bytes_any(tag, 0.0);
    if (!queued) break;
    const int src = queued->first;
    if (pending.count(src) == 0) continue;  // duplicate or out-of-group frame
    sink(src, std::move(queued->second));
    out.participated.push_back(src);
    pending.erase(src);
  }

  // Now a peer known dead with nothing queued cannot contribute this
  // round — don't let a crashed client consume the whole deadline.
  for (auto it = pending.begin(); it != pending.end();) {
    if (c.peer_alive(*it)) {
      ++it;
    } else {
      out.dropped.push_back(*it);
      it = pending.erase(it);
    }
  }

  const auto start = clock::now();
  const auto deadline = start + std::chrono::duration_cast<clock::duration>(
                                    std::chrono::duration<double>(opt.deadline_seconds));
  const auto quorum_deadline =
      start + std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(
                  std::max(opt.deadline_seconds, opt.quorum_timeout_seconds)));

  while (!pending.empty()) {
    const auto now = clock::now();
    const bool past_deadline = now >= deadline;
    if (past_deadline) {
      out.deadline_hit = true;
      if (static_cast<int>(out.participated.size()) >= opt.min_clients) break;
      OF_CHECK_MSG(now < quorum_deadline,
                   "partial gather: only " << out.participated.size() << " of a required "
                                           << opt.min_clients
                                           << " clients reported before the quorum timeout");
    }
    const auto limit = past_deadline ? quorum_deadline : deadline;
    const double wait =
        std::max(1e-3, std::chrono::duration<double>(limit - now).count());
    auto got = c.try_recv_bytes_any(tag, wait);
    if (!got) continue;  // re-evaluate deadline / quorum state
    const int src = got->first;
    if (pending.count(src) == 0) continue;  // duplicate or out-of-group frame
    sink(src, std::move(got->second));
    out.participated.push_back(src);
    pending.erase(src);
  }
  out.dropped.insert(out.dropped.end(), pending.begin(), pending.end());
  std::sort(out.participated.begin(), out.participated.end());
  std::sort(out.dropped.begin(), out.dropped.end());
  return out;
}

}  // namespace of::comm::star
