// The deadline-based streaming gather of a star hub (rank 0). Works over
// any communicator; the plain byte collectives live on Communicator itself.
// Every rank of the group must call it in the same order as its other
// collectives.
#pragma once

#include <functional>

#include "comm/communicator.hpp"

namespace of::comm::star {

// The fault-tolerant, streaming variant of gather_bytes — the primitive of
// every hub that cuts stragglers (centralized fault runs, hierarchical
// combiners). The hub collects client frames until either everyone
// reported or the round deadline passes. Past the deadline it proceeds with
// whatever arrived, provided at least `min_clients` made it; otherwise it
// keeps waiting (up to `quorum_timeout_seconds` total) for a quorum.
// Stragglers past the cutoff are recorded as dropped — the aggregation
// layer re-weights around them.
//
// The hub never materializes the frame set: each client frame is handed to
// `sink(src, frame)` the moment it arrives (the hub's own contribution `b`
// is NOT sunk — the caller already holds it). With a rank-order
// StreamingSum fold behind the sink, hub aggregation state is O(model), not
// O(clients × model), as long as frames arrive in rank order; a frame that
// arrives ahead of a lower rank stays parked until that rank comes in. A
// client sends exactly what gather_bytes sends, so clients may call either.

struct PartialGatherOptions {
  int min_clients = 1;                  // quorum: proceed past deadline with >= this many
  double deadline_seconds = 5.0;        // soft per-round cutoff
  double quorum_timeout_seconds = 60.0; // hard cutoff waiting for the quorum itself
};

struct StreamingGather {
  std::vector<int> participated;  // client ranks that made the cutoff (sorted)
  std::vector<int> dropped;       // client ranks excluded this round (sorted)
  bool deadline_hit = false;      // true when at least one straggler was outwaited
};
using FrameSink = std::function<void(int src, Bytes&& frame)>;
// Collective: every rank calls it in the same order. Clients send and return
// an empty result; the hub (rank 0) returns the populated StreamingGather.
StreamingGather gather_bytes_streaming(Communicator& c, const Bytes& b,
                                       const FrameSink& sink,
                                       const PartialGatherOptions& opt);

}  // namespace of::comm::star
