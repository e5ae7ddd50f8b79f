#include "probes.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cstruct/serialize.hpp"
#include "genpaxos/engine.hpp"
#include "loadgen.hpp"
#include "paxos/round_config.hpp"
#include "paxos/wire.hpp"
#include "storage/file_storage.hpp"
#include "transport/tcp_transport.hpp"
#include "util/metrics.hpp"

namespace perfbench {

using namespace mcp;
using Clock = std::chrono::steady_clock;

namespace {

double since_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Keeps a computed value observable so the timed work is not elided.
std::atomic<std::size_t> g_sink{0};

/// Median over `reps` timings of `fn`, in ns.
template <typename F>
double median_ns(int reps, F&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(since_ns(t0));
  }
  return percentile(t, 0.5);
}

}  // namespace

void probe_cstruct(const cstruct::History& learned, ProbeResults& out) {
  constexpr int kReps = 15;
  constexpr int kAppends = 32;
  const std::string encoded = cstruct::encode(learned);
  out["cstruct.history_len"] = static_cast<double>(learned.size());
  out["cstruct.vote_bytes"] = static_cast<double>(encoded.size());
  out["cstruct.copy_us"] = median_ns(kReps, [&] {
    const cstruct::History copy(learned);
    g_sink += copy.size();
  }) / 1e3;
  out["cstruct.encode_us"] = median_ns(kReps, [&] {
    g_sink += cstruct::encode(learned).size();
  }) / 1e3;

  // Fresh commands, so every append pays the containment check in full.
  std::vector<cstruct::Command> fresh;
  for (int i = 0; i < kAppends; ++i) {
    fresh.push_back(cstruct::make_write(0xF00D0000ull + static_cast<std::uint64_t>(i),
                                        "probe" + std::to_string(i % 4), "v"));
  }
  std::vector<double> append;
  for (int r = 0; r < kReps; ++r) {
    cstruct::History copy(learned);
    const auto t0 = Clock::now();
    for (const auto& c : fresh) copy.append(c);
    append.push_back(since_ns(t0) / kAppends);
    g_sink += copy.size();
  }
  out["cstruct.append_ns"] = percentile(append, 0.5);

  // A 2a/2b delta: the suffix past a base that lacks the last batch.
  const auto& seq = learned.sequence();
  const std::size_t keep = seq.size() > 8 ? seq.size() - 8 : 0;
  const cstruct::History base = cstruct::History::from_sequence(
      learned.relation(), std::vector<cstruct::Command>(seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(keep)));
  out["cstruct.suffix_after_us"] = median_ns(kReps, [&] {
    const auto suffix = learned.suffix_after(base);
    g_sink += suffix ? suffix->size() : 0;
  }) / 1e3;
}

void probe_storage(const std::string& dir, std::size_t vote_bytes, ProbeResults& out) {
  constexpr int kWrites = 48;
  std::filesystem::remove_all(dir);
  std::vector<double> us;
  {
    storage::FileStorage fs(dir);
    const std::string value(vote_bytes > 0 ? vote_bytes : 1, 'v');
    for (int i = 0; i < kWrites; ++i) {
      const auto t0 = Clock::now();
      fs.write("vval", value);
      us.push_back(since_ns(t0) / 1e3);
    }
  }
  std::filesystem::remove_all(dir);
  out["storage.write_us.p50"] = percentile(us, 0.5);
  out["storage.write_us.p99"] = percentile(us, 0.99);
}

void probe_transport(ProbeResults& out) {
  constexpr int kWarm = 50;
  constexpr int kPings = 1000;
  transport::TcpConfig ca;
  ca.self = 0;
  transport::TcpConfig cb;
  cb.self = 1;
  transport::TcpTransport a(ca);
  transport::TcpTransport b(cb);
  a.bind_and_listen();
  b.bind_and_listen();
  a.set_peer(1, {"127.0.0.1", b.listen_port()});
  b.set_peer(0, {"127.0.0.1", a.listen_port()});
  std::atomic<int> pongs{0};
  b.start([&b](transport::PeerId from, std::string frame) { b.send(from, frame); });
  a.start([&pongs](transport::PeerId, std::string) { pongs.fetch_add(1); });
  const std::string ping(48, 'p');  // about a 2b-delta envelope
  std::vector<double> rtt;
  for (int i = 0; i < kWarm + kPings; ++i) {
    const int want = pongs.load() + 1;
    const auto t0 = Clock::now();
    a.send(1, ping);
    while (pongs.load() < want) {
      if (Clock::now() - t0 > std::chrono::seconds(2)) break;  // a lost frame
      std::this_thread::yield();
    }
    if (i >= kWarm) rtt.push_back(since_ns(t0) / 1e3);
  }
  a.stop();
  b.stop();
  out["transport.rtt_us.p50"] = percentile(rtt, 0.5);
}

void probe_codec_and_metrics(ProbeResults& out) {
  constexpr int kIters = 20000;
  static const cstruct::KeyConflict kConflicts;
  const auto policy = paxos::PatternPolicy::always_single({0});
  genpaxos::Msg2aDelta msg;
  msg.b = policy->make_ballot(2, 0, 0);
  msg.delta.base_size = 600;
  for (int i = 0; i < 8; ++i) {  // one batch of the kv workloads
    msg.delta.suffix.push_back(cstruct::make_write(
        0xABC000ull + static_cast<std::uint64_t>(i), key_name(static_cast<std::uint32_t>(100 + i)),
        "v1." + std::to_string(400 + i)));
  }
  const std::string bytes = wire::make_envelope(msg).encode();
  wire::DecoderRegistry registry;
  genpaxos::register_wire_messages(registry, cstruct::History(&kConflicts));

  auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) g_sink += wire::make_envelope(msg).encode().size();
  out["paxos.envelope_encode_ns"] = since_ns(t0) / kIters;
  t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    g_sink += registry.decode(wire::Envelope::decode(bytes)).has_value() ? 1 : 0;
  }
  out["paxos.envelope_decode_ns"] = since_ns(t0) / kIters;

  // The send path builds "net.bytes." + name and "g<G>.net..." keys per
  // message; time one such increment.
  util::Metrics metrics;
  const std::uint32_t tags[] = {genpaxos::Msg2aDelta::kTag, genpaxos::Msg2bDelta::kTag};
  t0 = Clock::now();
  for (int i = 0; i < kIters * 5; ++i) {
    metrics.incr("net.bytes." + wire::message_name(tags[i & 1]), 64);
  }
  out["util.metrics_incr_ns"] = since_ns(t0) / (kIters * 5);
}

}  // namespace perfbench
