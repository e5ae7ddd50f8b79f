// perfbench: the repository benchmark. Runs one named workload against a
// live in-process TCP cluster with an open-loop generator, checks the
// cluster's outputs, and prints one JSON result line last.
//
//   perfbench --workload kv-mem --seed 1 --seconds 10 --trace 0 --data DIR
//   perfbench --selftest
//
// --trace 0 reports the end-to-end metrics of untraced segments; --trace 1
// runs traced segments plus the unit probes and reports the per-layer
// metrics. Run it through run.py, which builds it first.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.hpp"
#include "segment.hpp"
#include "selftest.hpp"

namespace perfbench {
namespace {

// Rates are offered ops/s; segment sizes are in ops, because latency
// depends on how long the history has grown, not on wall time.
constexpr double kBaseRate = 300;
constexpr std::size_t kBaseOps = 300;  ///< ops per base-rate segment
constexpr double kPrefillRate = 1500;
constexpr double kLadderSeconds = 1.0;  ///< arrivals per ladder rung
constexpr int kLadderPasses = 3;
/// Share of a --trace 0 run's seconds spent at the base rate; the ladder
/// passes take about the rest.
constexpr double kBaseShare = 0.6;
/// lat_p50_us is this quantile of the base segments' own p50s. Load from
/// outside the benchmark only ever adds latency, and it comes in bursts of
/// seconds: a low quantile over many short segments spread across the run
/// reads the cluster, not the neighbours, as long as a tenth of the
/// segments run undisturbed. (The median over segments spread 0.28 of its
/// median over ten runs on a shared host.)
constexpr double kSegmentQuantile = 0.1;

/// One workload: what sets it apart from the others.
struct Workload {
  std::string name;
  /// kv-long: ops pushed through the cluster (untimed) before each timed
  /// phase, so the timed ops meet a long history.
  std::size_t prefill_ops = 0;
  /// SLO ladder: offered rates tried in order, each on a fresh cluster for
  /// kLadderSeconds of arrivals; the p90 limit is the workload's SLO.
  std::vector<double> ladder;
  double slo_p90_us = 0;
};

std::vector<Workload> workloads() {
  // Each SLO limit sits where the workload's p90 turns from service time
  // into queueing (it grows several-fold per rung there), so the crossing
  // rate is a capacity figure that noise in p90 moves little.
  std::vector<Workload> w(2);
  w[0].name = "kv-mem";
  w[0].ladder = {1900, 2400, 3000, 3750, 4700, 5900};
  w[0].slo_p90_us = 100'000;

  w[1].name = "kv-long";
  w[1].prefill_ops = 600;
  w[1].ladder = {1000, 1250, 1600, 2000, 2500, 3200, 4000};
  w[1].slo_p90_us = 200'000;
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--data") {
      a.data = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags take one value each");
  return a;
}

double median(std::vector<double> xs) { return percentile(xs, 0.5); }
double percentile(std::vector<double> xs, double q) { return perfbench::percentile(xs, q); }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Results of a run, ready for the report.
struct Run {
  bool correct = true;
  std::string error;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::pair<double, const char*>> metrics;  // name -> (value, unit)
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args) : w_(w), args_(args) {}

  /// One segment on a fresh cluster; `durable` puts every node on
  /// FileStorage under the run's data directory.
  SegmentResult segment(std::vector<Phase> phases, std::size_t trace_every,
                        std::int64_t mailbox_probe_ns = 0, bool durable = false) {
    SegmentSpec spec;
    spec.phases = std::move(phases);
    spec.seed = args_.seed * 1000 + next_segment_++;
    spec.trace_every = trace_every;
    spec.mailbox_probe_ns = mailbox_probe_ns;
    if (durable) spec.data_root = args_.data + "/cluster";
    SegmentResult r = run_segment(spec);
    account(r);
    return r;
  }

  Phase phase(double rate, std::size_t ops, bool timed = true) const {
    Phase p;
    p.schedule.rate = rate;
    p.schedule.ops = ops;
    p.timed = timed;
    return p;
  }

  /// The timed phases of one segment at `rate`, preceded by the prefill.
  std::vector<Phase> phases_at(double rate, std::size_t ops) const {
    std::vector<Phase> out;
    if (w_.prefill_ops > 0) out.push_back(phase(kPrefillRate, w_.prefill_ops, false));
    out.push_back(phase(rate, ops));
    return out;
  }

  /// Segments of `ops` ops at `rate` (each after the prefill) that fill
  /// `seconds` of arrivals; at least one.
  int segments_for(double seconds, double rate, std::size_t ops) const {
    const double each = static_cast<double>(w_.prefill_ops) / kPrefillRate +
                        static_cast<double>(ops) / rate;
    return std::max(1, static_cast<int>(std::lround(seconds / each)));
  }

  Run& run() { return run_; }

 private:
  void account(const SegmentResult& r) {
    if (!r.correct && run_.correct) {
      run_.correct = false;
      run_.error = r.error;
    }
  }

  const Workload& w_;
  const Args& args_;
  std::uint64_t next_segment_ = 0;
  Run run_;
};

/// A run is generator-bound when its own lateness, not the cluster, sets
/// the latency percentiles it would report.
bool generator_bound(std::vector<double> late, std::vector<double> lat, std::string& why) {
  const double late50 = percentile(late, 0.5);
  const double late90 = percentile(late, 0.9);
  const double lat50 = percentile(lat, 0.5);
  const double lat90 = percentile(lat, 0.9);
  if (late50 > 0.25 * lat50 || late90 > 0.5 * lat90) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "generator lateness p50 %.0f us / p90 %.0f us against latency p50 %.0f us / "
                  "p90 %.0f us",
                  late50, late90, lat50, lat90);
    why = buf;
    return true;
  }
  return false;
}

/// The timed ops at the base rate: every latency pooled, plus each
/// segment's own figures.
struct RateSample {
  std::vector<double> lat, late;
  std::vector<double> p50, cpu_ms_per_kop;
};

void end_to_end(const Workload& w, const Args& args, Runner& runner) {
  Run& run = runner.run();
  std::vector<double> setups;
  double heap_mb = 0;

  RateSample base;
  const auto base_segments = [&](int n) {
    for (int i = 0; i < n; ++i) {
      SegmentResult r = runner.segment(runner.phases_at(kBaseRate, kBaseOps), 0);
      setups.push_back(r.setup_s);
      append(base.lat, r.lat_us);
      append(base.late, r.late_us);
      base.p50.push_back(percentile(r.lat_us, 0.5));
      std::printf("%s segment at %.0f ops/s: p50 %.0f us, p90 %.0f us\n", w.name.c_str(), kBaseRate,
                  base.p50.back(), percentile(r.lat_us, 0.9));
      base.cpu_ms_per_kop.push_back(
          ratio(r.cpu_ms, static_cast<double>(r.attempted - r.failed) / 1000.0));
      heap_mb = std::max(heap_mb, r.heap_mb);
      run.attempted += r.attempted;
      run.failed += r.failed;
    }
  };
  // The base-rate segments are spread in kLadderPasses + 1 groups around
  // the ladder passes, so they sample the whole run's time, not one end.
  const int n_base = runner.segments_for(args.seconds * kBaseShare, kBaseRate, kBaseOps);
  const auto group = [&](int g) {
    return n_base * (g + 1) / (kLadderPasses + 1) - n_base * g / (kLadderPasses + 1);
  };

  // Each pass of the ladder climbs until a rate misses the SLO: p90 over the
  // limit or an op unanswered. Latency runs from the scheduled send, so a
  // backlog that keeps growing shows as p90 over the limit. A pass reports
  // where p90 crosses the limit, interpolated log-linearly between the last
  // rate that met the SLO and the first that missed it on p90 (a step
  // function of the ladder would flip between rungs from run to run). Load
  // from outside the benchmark only lowers a crossing, so the run reports
  // its best pass; the passes are spread across the run between the
  // base-rate groups. Ops a rung leaves unanswered are how it
  // misses the SLO above the knee, so `attempted` and `failed` count the
  // base-rate ops only.
  std::vector<double> crossings;
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    base_segments(group(pass));
    double slo_rate = 0;
    double met_p90 = 0;
    for (const double rate : w.ladder) {
      const auto ops = static_cast<std::size_t>(rate * kLadderSeconds);
      SegmentResult r = runner.segment(runner.phases_at(rate, ops), 0);
      setups.push_back(r.setup_s);
      const double p90 = percentile(r.lat_us, 0.90);
      const bool met = r.failed == 0 && p90 <= w.slo_p90_us;
      std::printf("ladder %s pass %d rate %.0f: p90 %.0f us, p99 %.0f us, failed %zu -> %s\n",
                  w.name.c_str(), pass, rate, p90, percentile(r.lat_us, 0.99), r.failed,
                  met ? "meets SLO" : "misses SLO");
      if (met) {
        slo_rate = rate;
        met_p90 = p90;
        continue;
      }
      if (slo_rate > 0 && p90 > w.slo_p90_us) {
        const double f = std::log(w.slo_p90_us / met_p90) / std::log(p90 / met_p90);
        slo_rate *= std::pow(rate / slo_rate, std::clamp(f, 0.0, 1.0));
      }
      break;
    }
    crossings.push_back(slo_rate);
    std::printf("ladder %s pass %d crosses the SLO at %.0f ops/s\n", w.name.c_str(), pass, slo_rate);
  }
  base_segments(group(kLadderPasses));

  std::string why;
  if (generator_bound(base.late, base.lat, why)) {
    throw std::runtime_error("invalid run, generator-bound: " + why);
  }
  // Tail percentiles are printed for the record. On a shared machine they
  // move with the neighbours' load far more than a regression bound allows
  // (p90 spread 0.6 of its median over ten runs), so the bounded latency is
  // a p50; the traced run reports p90 and p99 per layer.
  std::printf("%s: %zu base ops, p90 %.0f us, p99 %.0f us; generator lateness p99 %.0f us\n",
              w.name.c_str(), base.lat.size(), percentile(base.lat, 0.9),
              percentile(base.lat, 0.99), percentile(base.late, 0.99));

  run.metrics["setup_s"] = {median(setups), "s"};
  run.metrics["lat_p50_us"] = {percentile(base.p50, kSegmentQuantile), "us"};
  run.metrics["slo_rate_ops_s"] = {*std::max_element(crossings.begin(), crossings.end()), "ops/s"};
  run.metrics["cpu_ms_per_kop"] = {median(base.cpu_ms_per_kop), "ms"};
  run.metrics["heap_mb"] = {heap_mb, "MiB"};
}

void per_layer(const Workload& w, const Args& args, Runner& runner) {
  Run& run = runner.run();
  constexpr std::size_t kTraceEvery = 4;
  constexpr std::int64_t kMailboxProbeNs = 5'000'000;
  Stages stages;
  std::vector<double> lat_traced, lat_plain, late, mailbox;
  std::map<std::string, double> counters;
  double committed = 0, unavail = 0;
  std::size_t sessions = 0;
  mcp::cstruct::History learned;

  // Traced and untraced segments alternate, so the overhead ratio compares
  // like with like.
  const int n = runner.segments_for(args.seconds * 0.35, kBaseRate, kBaseOps);
  for (int i = 0; i < n; ++i) {
    for (const bool traced : {true, false}) {
      SegmentResult r = runner.segment(runner.phases_at(kBaseRate, kBaseOps),
                                       traced ? kTraceEvery : 0, traced ? kMailboxProbeNs : 0);
      append(traced ? lat_traced : lat_plain, r.lat_us);
      run.attempted += r.attempted;
      run.failed += r.failed;
      if (!traced) continue;
      append(late, r.late_us);
      append(stages.batch_wait_us, r.stages.batch_wait_us);
      append(stages.quorum_us, r.stages.quorum_us);
      append(stages.apply_us, r.stages.apply_us);
      append(stages.reply_us, r.stages.reply_us);
      append(stages.client_gap_us, r.stages.client_gap_us);
      append(mailbox, r.mailbox_wait_us);
      for (const auto& [name, v] : r.counters) counters[name] += static_cast<double>(v);
      committed += static_cast<double>(r.committed);
      unavail = std::max(unavail, r.unavail_ms);
      sessions = std::max(sessions, r.sessions);
      learned = std::move(r.learned);
    }
  }
  // The durable write path: the base schedule as all puts, short history,
  // every node on FileStorage, traced. Disk timing here moves with the
  // machine's other I/O, which is why no timed workload carries it.
  std::vector<Phase> puts{runner.phase(kBaseRate, kBaseOps)};
  puts.front().schedule.write_frac = 1.0;
  SegmentResult durable = runner.segment(puts, kTraceEvery, 0, true);
  run.attempted += durable.attempted;
  run.failed += durable.failed;

  const double kops = committed / 1000.0;
  auto& m = run.metrics;
  m["storage.writes_per_op"] = {
      ratio(static_cast<double>(durable.disk_writes), static_cast<double>(durable.committed)), "count"};
  m["storage.wal_bytes_per_op"] = {
      ratio(static_cast<double>(durable.data_bytes), static_cast<double>(durable.committed)), "B"};
  m["storage.quorum_us.p50"] = {percentile(durable.stages.quorum_us, 0.5), "us"};
  m["storage.lat_p50_us"] = {percentile(durable.lat_us, 0.5), "us"};
  m["service.batch_wait_us.p50"] = {percentile(stages.batch_wait_us, 0.5), "us"};
  m["service.reply_us.p50"] = {percentile(stages.reply_us, 0.5), "us"};
  m["service.client_gap_us.p50"] = {percentile(stages.client_gap_us, 0.5), "us"};
  m["service.cmds_per_batch"] = {ratio(counters["svc.batched_commands"], counters["svc.batches"]), "count"};
  m["service.retries_per_kop"] = {ratio(counters["svc.retries"], kops), "count"};
  m["service.dups_per_kop"] = {ratio(counters["svc.duplicates"], kops), "count"};
  m["genpaxos.quorum_us.p50"] = {percentile(stages.quorum_us, 0.5), "us"};
  m["genpaxos.quorum_us.p99"] = {percentile(stages.quorum_us, 0.99), "us"};
  m["genpaxos.msgs_per_op"] = {ratio(counters["net.sent"], committed), "count"};
  m["genpaxos.2b_full_frac"] = {
      ratio(counters["gen.2b_full_sent"], counters["gen.2b_full_sent"] + counters["gen.2b_delta_sent"]),
      "ratio"};
  m["genpaxos.resyncs_per_kop"] = {ratio(counters["gen.2a_resyncs"] + counters["gen.2b_resyncs"], kops), "count"};
  m["genpaxos.rounds_started"] = {counters["gen.rounds_started"] / n, "count"};
  m["genpaxos.collisions"] = {
      (counters["gen.collisions_detected"] + counters["gen.fast_collisions_detected"]) / n, "count"};
  m["paxos.wire_bytes_per_op"] = {ratio(counters["net.bytes_sent"], committed), "B"};
  m["smr.apply_us.p50"] = {percentile(stages.apply_us, 0.5), "us"};
  m["transport.frames_per_flush"] = {
      ratio(counters["net.flush.batch.frames"], counters["net.flush.batch.flushes"]), "count"};
  m["transport.drops"] = {counters["net.backpressure.drops"] + counters["net.conn.drops"], "count"};
  m["runtime.mailbox_wait_us.p50"] = {percentile(mailbox, 0.5), "us"};
  m["runtime.mailbox_wait_us.p99"] = {percentile(mailbox, 0.99), "us"};
  m["gen.late_us.p99"] = {percentile(late, 0.99), "us"};
  m["gen.sessions"] = {static_cast<double>(sessions), "count"};
  m["gen.unavail_ms"] = {unavail, "ms"};
  m["client.lat_p90_us"] = {percentile(lat_plain, 0.9), "us"};
  m["client.lat_p99_us"] = {percentile(lat_plain, 0.99), "us"};
  const double plain50 = percentile(lat_plain, 0.5);
  m["trace.overhead_ratio"] = {ratio(percentile(lat_traced, 0.5), plain50), "ratio"};

  ProbeResults probes;
  probe_cstruct(learned, probes);
  probe_storage(args.data + "/probe-storage", static_cast<std::size_t>(probes["cstruct.vote_bytes"]),
                probes);
  probe_transport(probes);
  probe_codec_and_metrics(probes);
  const std::map<std::string, const char*> units{
      {"cstruct.history_len", "count"}, {"cstruct.vote_bytes", "B"},
      {"cstruct.copy_us", "us"},        {"cstruct.encode_us", "us"},
      {"cstruct.append_ns", "ns"},      {"cstruct.suffix_after_us", "us"},
      {"storage.write_us.p50", "us"},   {"storage.write_us.p99", "us"},
      {"transport.rtt_us.p50", "us"},   {"paxos.envelope_encode_ns", "ns"},
      {"paxos.envelope_decode_ns", "ns"}, {"util.metrics_incr_ns", "ns"}};
  for (const auto& [name, value] : probes) m[name] = {value, units.at(name)};

  // The split of a traced command's server time, and which stage dominates.
  const std::vector<std::pair<const char*, double>> split{
      {"batch_wait", m["service.batch_wait_us.p50"].first},
      {"quorum", m["genpaxos.quorum_us.p50"].first},
      {"apply", m["smr.apply_us.p50"].first},
      {"reply", m["service.reply_us.p50"].first},
      {"client_gap", m["service.client_gap_us.p50"].first}};
  std::printf("%s stage split (p50 us, %zu sampled commands):", w.name.c_str(), stages.quorum_us.size());
  for (const auto& [stage, us] : split) std::printf(" %s %.0f", stage, us);
  const auto top = std::max_element(split.begin(), split.begin() + 4,
                                    [](const auto& a, const auto& b) { return a.second < b.second; });
  std::printf("; largest server-side stage: %s\n", top->first);
  std::printf("%s durable segment: storage write p50 %.0f us x %.2f writes/op = %.0f us of a "
              "%.0f us quorum stage; history %0.f commands\n",
              w.name.c_str(), m["storage.write_us.p50"].first, m["storage.writes_per_op"].first,
              m["storage.write_us.p50"].first * m["storage.writes_per_op"].first,
              m["storage.quorum_us.p50"].first, m["cstruct.history_len"].first);
  std::printf("%s genpaxos rounds_started %.1f collisions %.1f per segment\n", w.name.c_str(),
              m["genpaxos.rounds_started"].first, m["genpaxos.collisions"].first);
}

void print_result(const Run& run) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              run.correct ? "true" : "false", run.attempted, run.failed);
  bool first = true;
  for (const auto& [name, vu] : run.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                vu.first, vu.second);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--selftest") return run_selftests() == 0 ? 0 : 1;
  try {
    const Args args = parse(argc, argv);
    const auto all = workloads();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Workload& w) { return w.name == args.workload; });
    if (it == all.end()) throw std::invalid_argument("unknown workload '" + args.workload + "'");
    Runner runner(*it, args);
    if (args.trace != 0) {
      per_layer(*it, args, runner);
    } else {
      end_to_end(*it, args, runner);
    }
    const Run& run = runner.run();
    if (!run.correct) std::fprintf(stderr, "correctness check failed: %s\n", run.error.c_str());
    std::fflush(stderr);
    print_result(run);
    return run.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
