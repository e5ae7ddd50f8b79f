#pragma once

// The open-loop load generator, split into a clock-free core (schedule,
// session pool, per-op accounting) that the self-tests drive with synthetic
// time, and the socket shell in segment.cpp that feeds it real replies.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled client operation. Times are nanoseconds from the start of
/// the segment's schedule.
struct Op {
  std::int64_t at_ns = 0;
  bool write = true;
  std::uint32_t key = 0;
};

struct ScheduleSpec {
  double rate = 300;           ///< mean arrivals per second (Poisson)
  std::size_t ops = 600;
  std::uint32_t keys = 1000;   ///< uniform key space
  double write_frac = 0.75;
};

/// Deterministic in (spec, seed): splitmix64 draws, inverse-CDF exponential
/// gaps, so the same seed yields the same schedule on every platform.
std::vector<Op> make_schedule(const ScheduleSpec& spec, std::uint64_t seed);

std::string key_name(std::uint32_t key);

/// Nearest-rank percentile, q in [0, 1], computed by selection (the caller's
/// vector is reordered). Returns 0 for an empty sample.
double percentile(std::vector<double>& samples, double q);

/// What happened to one scheduled op.
struct OpRecord {
  std::int64_t first_send_ns = -1;  ///< -1 until issued
  std::int64_t reply_ns = -1;       ///< -1 until answered
  int attempts = 0;
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  bool found = false;               ///< read result
  std::string value;                ///< read result
  std::uint64_t trace_id = 0;       ///< nonzero when the server sampled it
};

/// One transmission the shell must put on the wire.
struct Send {
  std::size_t op = 0;
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  int conn = 0;
};

/// Open-loop core: issues each op when it falls due, pipelining many
/// sessions over `conns` connections. A session carries at most one op at
/// a time (the frontend's dedup contract); when every session is busy a
/// new session id is opened. A timed-out attempt is retransmitted with the
/// same (client id, seq); an op past its deadline is failed and its session
/// is retired, never reused, because the op may still be in flight.
class OpenLoop {
 public:
  OpenLoop(const std::vector<Op>& schedule, std::uint64_t client_base, int conns,
           std::int64_t attempt_timeout_ns, std::int64_t deadline_ns);

  /// Issue every op due by `now`.
  void issue_due(std::int64_t now, std::vector<Send>& out);
  /// Retransmit attempts older than the attempt timeout; fail ops past the
  /// deadline.
  void expire(std::int64_t now, std::vector<Send>& out);
  /// A reply arrived. Returns the op index it completes, or -1 for a reply
  /// that matches nothing in flight (a late duplicate).
  long on_reply(std::uint64_t client_id, std::uint64_t seq, std::int64_t now);

  /// Earliest time the core needs attention again (next arrival or timeout).
  std::int64_t next_event() const;
  bool done() const { return issued_ == schedule_.size() && in_flight_ == 0; }

  const std::vector<OpRecord>& records() const { return records_; }
  std::vector<OpRecord>& records() { return records_; }
  std::size_t sessions_opened() const { return sessions_.size(); }
  std::size_t failed() const { return failed_; }

 private:
  struct Session {
    std::uint64_t seq = 0;
    long op = -1;  ///< op in flight, -1 when idle
    bool retired = false;
  };

  const std::vector<Op>& schedule_;
  std::uint64_t client_base_;
  int conns_;
  std::int64_t attempt_timeout_ns_;
  std::int64_t deadline_ns_;
  std::vector<OpRecord> records_;
  std::vector<std::int64_t> last_send_;
  std::vector<Session> sessions_;
  std::deque<std::size_t> idle_;
  /// Ops in flight in send order: the front has the oldest attempt.
  std::deque<std::size_t> waiting_;
  std::size_t issued_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t failed_ = 0;
};

/// Longest stretch, in ns, during which some op was due and unanswered and
/// no reply arrived. Unanswered ops count as outstanding until `end_ns`.
std::int64_t longest_unavailable_ns(const std::vector<Op>& schedule,
                                    const std::vector<OpRecord>& records,
                                    std::int64_t end_ns);

}  // namespace perfbench
