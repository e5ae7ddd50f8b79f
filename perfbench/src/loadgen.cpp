#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform in [0, 1).
double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::uint32_t below(std::uint64_t& state, std::uint32_t n) {
  return n == 0 ? 0 : static_cast<std::uint32_t>(splitmix64(state) % n);
}

}  // namespace

std::vector<Op> make_schedule(const ScheduleSpec& spec, std::uint64_t seed) {
  std::uint64_t state = seed * 0x2545F4914F6CDD1Dull + 1;
  std::vector<Op> ops;
  ops.reserve(spec.ops);
  double t = 0;
  for (std::size_t i = 0; i < spec.ops; ++i) {
    t += -std::log(1.0 - unit(state)) / spec.rate;
    Op op;
    op.at_ns = static_cast<std::int64_t>(t * 1e9);
    op.write = unit(state) < spec.write_frac;
    op.key = below(state, spec.keys);
    ops.push_back(op);
  }
  return ops;
}

std::string key_name(std::uint32_t key) { return "k" + std::to_string(key); }

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

OpenLoop::OpenLoop(const std::vector<Op>& schedule, std::uint64_t client_base, int conns,
                   std::int64_t attempt_timeout_ns, std::int64_t deadline_ns)
    : schedule_(schedule),
      client_base_(client_base),
      conns_(conns < 1 ? 1 : conns),
      attempt_timeout_ns_(attempt_timeout_ns),
      deadline_ns_(deadline_ns),
      records_(schedule.size()),
      last_send_(schedule.size(), -1) {}

void OpenLoop::issue_due(std::int64_t now, std::vector<Send>& out) {
  while (issued_ < schedule_.size() && schedule_[issued_].at_ns <= now) {
    const std::size_t op = issued_++;
    std::size_t s = 0;
    if (idle_.empty()) {
      s = sessions_.size();
      sessions_.emplace_back();
    } else {
      s = idle_.front();
      idle_.pop_front();
    }
    Session& session = sessions_[s];
    session.op = static_cast<long>(op);
    OpRecord& rec = records_[op];
    rec.client_id = client_base_ + s;
    rec.seq = ++session.seq;
    rec.first_send_ns = now;
    rec.attempts = 1;
    last_send_[op] = now;
    waiting_.push_back(op);
    ++in_flight_;
    out.push_back({op, rec.client_id, rec.seq, static_cast<int>(s % static_cast<std::size_t>(conns_))});
  }
}

void OpenLoop::expire(std::int64_t now, std::vector<Send>& out) {
  while (!waiting_.empty()) {
    const std::size_t op = waiting_.front();
    OpRecord& rec = records_[op];
    if (rec.reply_ns >= 0 || last_send_[op] < 0) {
      waiting_.pop_front();  // answered or failed since it was queued
      continue;
    }
    if (now - last_send_[op] < attempt_timeout_ns_) break;
    waiting_.pop_front();
    Session& session = sessions_[rec.client_id - client_base_];
    if (now - schedule_[op].at_ns >= deadline_ns_) {
      last_send_[op] = -1;
      session.op = -1;
      session.retired = true;
      --in_flight_;
      ++failed_;
      continue;
    }
    ++rec.attempts;
    last_send_[op] = now;
    waiting_.push_back(op);
    const auto s = static_cast<std::size_t>(rec.client_id - client_base_);
    out.push_back({op, rec.client_id, rec.seq,
                   static_cast<int>(s % static_cast<std::size_t>(conns_))});
  }
}

long OpenLoop::on_reply(std::uint64_t client_id, std::uint64_t seq, std::int64_t now) {
  if (client_id < client_base_ || client_id - client_base_ >= sessions_.size()) return -1;
  const auto s = static_cast<std::size_t>(client_id - client_base_);
  Session& session = sessions_[s];
  if (session.op < 0 || records_[static_cast<std::size_t>(session.op)].seq != seq) return -1;
  const long op = session.op;
  records_[static_cast<std::size_t>(op)].reply_ns = now;
  session.op = -1;
  --in_flight_;
  if (!session.retired) idle_.push_back(s);
  return op;
}

std::int64_t OpenLoop::next_event() const {
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  if (issued_ < schedule_.size()) next = schedule_[issued_].at_ns;
  for (const std::size_t op : waiting_) {
    // The first live entry holds the oldest attempt.
    if (records_[op].reply_ns >= 0 || last_send_[op] < 0) continue;
    next = std::min(next, last_send_[op] + attempt_timeout_ns_);
    break;
  }
  return next;
}

std::int64_t longest_unavailable_ns(const std::vector<Op>& schedule,
                                    const std::vector<OpRecord>& records,
                                    std::int64_t end_ns) {
  // Reply instants in time order, with the end of the run as a final
  // instant for ops never answered.
  std::vector<std::int64_t> replies;
  replies.reserve(records.size() + 1);
  for (const OpRecord& r : records) {
    if (r.reply_ns >= 0) replies.push_back(r.reply_ns);
  }
  std::sort(replies.begin(), replies.end());
  replies.push_back(end_ns);
  // Ops in schedule order; `first` is the earliest-scheduled op still
  // unanswered just before the current instant. It only moves forward.
  std::vector<std::size_t> order(schedule.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return schedule[a].at_ns < schedule[b].at_ns; });
  std::size_t first = 0;
  std::int64_t prev = 0;
  std::int64_t longest = 0;
  for (const std::int64_t r : replies) {
    // Skip ops answered strictly before r; an op answered at r itself was
    // still outstanding until then.
    while (first < order.size() && records[order[first]].reply_ns >= 0 &&
           records[order[first]].reply_ns < r) {
      ++first;
    }
    if (first < order.size() && schedule[order[first]].at_ns < r) {
      const std::int64_t from = std::max(prev, schedule[order[first]].at_ns);
      longest = std::max(longest, r - from);
    }
    prev = r;
  }
  return longest;
}

}  // namespace perfbench
