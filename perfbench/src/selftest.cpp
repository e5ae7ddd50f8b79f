// Self-tests for the benchmark's own parts. `perfbench --selftest` runs them
// and exits nonzero on the first failure; run.py runs them before every
// measurement, so a broken generator never reports a number.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <vector>

#include "loadgen.hpp"
#include "selftest.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void percentiles_match_exact_sort() {
  std::mt19937_64 rng(5);
  for (const std::size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    std::vector<double> xs(n);
    for (double& x : xs) x = static_cast<double>(rng() % 100000) / 7.0;
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      // Nearest rank by definition: the ceil(q*n)-th smallest (at least 1st).
      std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
      if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
      rank = std::clamp<std::size_t>(rank, 1, n);
      std::vector<double> scratch = xs;
      check(percentile(scratch, q) == sorted[rank - 1], "percentile equals the exact sort's rank");
    }
  }
  std::vector<double> none;
  check(percentile(none, 0.5) == 0, "percentile of no samples is 0");
}

void lateness_is_measured_from_the_schedule() {
  const std::vector<Op> schedule{{0, true, 1}, {1000, true, 2}, {5000, false, 3}};
  OpenLoop loop(schedule, 100, 2, 1'000'000, 10'000'000);
  std::vector<Send> sends;
  loop.issue_due(1500, sends);  // the generator woke 1.5 us late
  check(sends.size() == 2, "both ops due by t=1500 are issued");
  check(loop.records()[0].first_send_ns == 1500 && loop.records()[1].first_send_ns == 1500,
        "first send is stamped when it happened");
  check(loop.records()[0].first_send_ns - schedule[0].at_ns == 1500 &&
            loop.records()[1].first_send_ns - schedule[1].at_ns == 500,
        "lateness is the send time minus the scheduled time");
  check(loop.next_event() == 5000, "next wake-up is the next arrival");
  const long op = loop.on_reply(sends[1].client_id, sends[1].seq, 3000);
  check(op == 1 && loop.records()[1].reply_ns - schedule[1].at_ns == 2000,
        "latency runs from the scheduled send, not the late actual one");
  sends.clear();
  loop.issue_due(4999, sends);
  check(sends.empty(), "an op is not issued before it is due");
}

void no_session_has_two_ops_in_flight() {
  std::mt19937_64 rng(11);
  std::vector<Op> schedule;
  for (std::int64_t i = 0; i < 2000; ++i) schedule.push_back({i * 10'000, i % 4 != 3, 0});
  constexpr std::int64_t kTimeout = 200'000;
  OpenLoop loop(schedule, 1, 4, kTimeout, 3'000'000);
  std::map<std::uint64_t, std::uint64_t> in_flight;  // client id -> seq
  struct Pending {
    std::int64_t at;
    std::uint64_t client;
    std::uint64_t seq;
  };
  std::vector<Pending> replies;
  bool ok = true;
  bool retried = false;
  std::vector<Send> sends;
  for (std::int64_t now = 0; !loop.done() && now < 100'000'000; now += 5'000) {
    sends.clear();
    loop.issue_due(now, sends);
    loop.expire(now, sends);
    for (const Send& s : sends) {
      const auto it = in_flight.find(s.client_id);
      if (it != in_flight.end() && it->second != s.seq) ok = false;  // a second op
      retried = retried || (it != in_flight.end() && it->second == s.seq);
      in_flight[s.client_id] = s.seq;
      // One reply in five is lost; the rest arrive after a random delay.
      if (rng() % 5 != 0) {
        replies.push_back({now + static_cast<std::int64_t>(rng() % 400'000), s.client_id, s.seq});
      }
    }
    for (auto it = replies.begin(); it != replies.end();) {
      if (it->at > now) {
        ++it;
        continue;
      }
      if (loop.on_reply(it->client, it->seq, now) >= 0) in_flight.erase(it->client);
      it = replies.erase(it);
    }
  }
  check(loop.done(), "the loop drains");
  check(ok, "no session id ever has two ops in flight");
  check(retried, "lost replies are retransmitted with the same seq");
  check(loop.sessions_opened() > 1, "busy sessions open new session ids");
}

void same_seed_same_schedule() {
  ScheduleSpec spec;
  spec.ops = 500;
  const auto a = make_schedule(spec, 42);
  const auto b = make_schedule(spec, 42);
  const auto c = make_schedule(spec, 43);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_ns == b[i].at_ns && a[i].write == b[i].write && a[i].key == b[i].key;
  }
  check(same, "the same seed produces the same schedule");
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs = differs || a[i].at_ns != c[i].at_ns;
  check(differs, "another seed produces another schedule");
  check(std::is_sorted(a.begin(), a.end(),
                       [](const Op& x, const Op& y) { return x.at_ns < y.at_ns; }),
        "arrivals are in time order");
  const double mean_gap = static_cast<double>(a.back().at_ns) / static_cast<double>(a.size());
  check(mean_gap > 0.8e9 / spec.rate && mean_gap < 1.2e9 / spec.rate, "arrivals keep the rate");
}

void unavailability_is_the_longest_unanswered_stretch() {
  const std::vector<Op> schedule{{0, true, 0}, {10, true, 0}, {20, true, 0}};
  std::vector<OpRecord> recs(3);
  recs[0].reply_ns = 5;
  recs[1].reply_ns = 100;  // due at 10, nothing answered until 100
  recs[2].reply_ns = 101;
  check(longest_unavailable_ns(schedule, recs, 200) == 90, "longest stretch with ops due");
  recs[2].reply_ns = -1;  // never answered: outstanding to the end
  check(longest_unavailable_ns(schedule, recs, 200) == 100, "unanswered ops count to the end");
}

}  // namespace

int run_selftests() {
  percentiles_match_exact_sort();
  lateness_is_measured_from_the_schedule();
  no_session_has_two_ops_in_flight();
  same_seed_same_schedule();
  unavailability_is_the_longest_unanswered_stretch();
  if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failures;
}

}  // namespace perfbench
