#pragma once

// One segment: a fresh cluster, a warm-up op (whose reply ends set-up),
// then one or more open-loop phases over the same cluster, then the
// correctness checks and every count the report needs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cstruct/history.hpp"
#include "loadgen.hpp"

namespace perfbench {

struct Phase {
  ScheduleSpec schedule;
  /// Latency, lateness and CPU count only for timed phases (a kv-long
  /// prefill is untimed, but its ops are checked like any other).
  bool timed = true;
};

struct SegmentSpec {
  std::vector<Phase> phases;
  std::uint64_t seed = 1;
  /// Non-empty: every node persists under this directory (removed after).
  std::string data_root;
  /// Frontend trace sampling; 0 runs untraced.
  std::size_t trace_every = 0;
  /// Post a timestamped no-op to every node's mailbox at this period (0: off).
  std::int64_t mailbox_probe_ns = 0;
};

/// Server-side stage gaps of sampled commands, from one node's trace clock.
struct Stages {
  std::vector<double> batch_wait_us, quorum_us, apply_us, reply_us, client_gap_us;
};

struct SegmentResult {
  bool correct = true;
  std::string error;  ///< first failed check

  double setup_s = 0;
  std::size_t attempted = 0;  ///< timed ops
  std::size_t failed = 0;     ///< timed ops not answered by the deadline
  std::size_t committed = 0;  ///< every op answered, timed or not
  std::vector<double> lat_us;   ///< timed ops, scheduled send -> reply
  std::vector<double> late_us;  ///< timed ops, scheduled -> actual first send
  double unavail_ms = 0;        ///< longest over the timed phases
  double cpu_ms = 0;            ///< process minus generator thread, timed phases
  std::size_t sessions = 0;     ///< largest session pool of a phase
  double heap_mb = 0;           ///< live heap after the last timed phase

  std::map<std::string, std::int64_t> counters;  ///< summed over nodes, after stop
  std::int64_t disk_writes = 0;
  std::int64_t data_bytes = 0;
  Stages stages;
  std::vector<double> mailbox_wait_us;
  mcp::cstruct::History learned;  ///< server 0's history at the end
};

/// Runs the segment end to end. Throws std::runtime_error on an I/O failure
/// of the generator itself (a refused connection, a broken socket).
SegmentResult run_segment(const SegmentSpec& spec);

}  // namespace perfbench
