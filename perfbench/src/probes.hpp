#pragma once

// Unit probes: single layers timed from outside, through public APIs, on
// inputs taken from the run itself where the layer's cost depends on them.

#include <map>
#include <string>

#include "cstruct/history.hpp"

namespace perfbench {

/// Metric name -> value. Names follow the per-layer metrics in BENCHMARK.json.
using ProbeResults = std::map<std::string, double>;

/// cstruct.* costs on `learned` (the run's own history): copy, encode,
/// append of fresh commands, the delta codec's suffix_after, vote bytes.
void probe_cstruct(const mcp::cstruct::History& learned, ProbeResults& out);

/// storage.write_us.p50/p99: a bench-owned FileStorage under `dir` writes a
/// value of `vote_bytes` bytes per call, as an acceptor's vote write does.
void probe_storage(const std::string& dir, std::size_t vote_bytes, ProbeResults& out);

/// transport.rtt_us.p50: ping-pong between two bench-owned TcpTransports.
void probe_transport(ProbeResults& out);

/// paxos.envelope_encode_ns/decode_ns on a representative 2a-delta, and
/// util.metrics_incr_ns with a freshly built key per call.
void probe_codec_and_metrics(ProbeResults& out);

}  // namespace perfbench
