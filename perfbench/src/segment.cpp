#include "segment.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cluster.hpp"
#include "service/messages.hpp"
#include "transport/frame.hpp"
#include "util/trace.hpp"

namespace perfbench {

using namespace mcp;

namespace {

constexpr int kConns = 4;  // one process, one thread, nproc connections
constexpr std::int64_t kAttemptTimeoutNs = 500'000'000;
constexpr std::int64_t kDeadlineNs = 5'000'000'000;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Client connection: a non-blocking socket with an outbound byte queue and
/// the inbound frame decoder.
struct Conn {
  int fd = -1;
  std::string out;
  transport::FrameBuffer in;
};

class Connections {
 public:
  explicit Connections(BenchCluster& cluster) {
    for (int c = 0; c < kConns; ++c) {
      Conn conn;
      conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (conn.fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(cluster.server_port(c % BenchCluster::kServers));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string err = std::strerror(errno);
        ::close(conn.fd);
        throw std::runtime_error("connect: " + err);
      }
      int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
      conns_.push_back(std::move(conn));
    }
  }
  ~Connections() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  std::vector<Conn>& all() { return conns_; }

  void queue(int c, const std::string& framed) {
    Conn& conn = conns_.at(static_cast<std::size_t>(c));
    conn.out += framed;
    flush(conn);
  }

  void flush(Conn& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("send: " + std::string(std::strerror(errno)));
    }
  }

 private:
  std::vector<Conn> conns_;
};

/// Process CPU minus this thread's CPU, in ns: the cluster's share, with
/// the generator's taken out.
std::int64_t cluster_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID) - clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

struct MailboxSink {
  std::mutex mu;
  std::vector<double> waits_us;
};

/// Drives one phase's OpenLoop over the connections until every op is
/// answered or failed.
class PhaseRunner {
 public:
  PhaseRunner(BenchCluster& cluster, Connections& conns, const std::vector<Op>& schedule,
              std::uint64_t client_base, std::uint32_t value_tag)
      : cluster_(cluster),
        conns_(conns),
        schedule_(schedule),
        loop_(schedule, client_base, kConns, kAttemptTimeoutNs, kDeadlineNs),
        value_tag_(value_tag) {}

  void run(std::int64_t mailbox_period_ns, MailboxSink* sink) {
    std::vector<Send> sends;
    std::vector<pollfd> fds(static_cast<std::size_t>(kConns));
    char chunk[64 << 10];
    epoch_ = steady_ns();
    std::int64_t next_probe = mailbox_period_ns > 0 ? 0 : -1;
    while (true) {
      std::int64_t now = steady_ns() - epoch_;
      sends.clear();
      loop_.issue_due(now, sends);
      loop_.expire(now, sends);
      for (const Send& s : sends) conns_.queue(s.conn, encode(s));
      if (next_probe >= 0 && now >= next_probe) {
        probe_mailboxes(*sink);
        next_probe = now + mailbox_period_ns;
      }
      if (loop_.done()) break;

      std::int64_t wake = loop_.next_event();
      if (next_probe >= 0) wake = std::min(wake, next_probe);
      const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        Conn& c = conns_.all()[i];
        fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
      }
      const timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
      const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
      if (rc <= 0) continue;
      for (std::size_t i = 0; i < fds.size(); ++i) {
        Conn& c = conns_.all()[i];
        if (fds[i].revents & POLLOUT) conns_.flush(c);
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n == 0) throw std::runtime_error("server closed a client connection");
        if (n < 0) {
          if (errno == EAGAIN || errno == EINTR) continue;
          throw std::runtime_error("recv: " + std::string(std::strerror(errno)));
        }
        const std::int64_t at = steady_ns() - epoch_;
        c.in.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
        while (auto frame = c.in.next()) on_frame(*frame, at);
      }
    }
    end_ = steady_ns() - epoch_;
  }

  OpenLoop& loop() { return loop_; }
  const OpenLoop& loop() const { return loop_; }
  std::int64_t epoch_ns() const { return epoch_; }
  std::int64_t end_ns() const { return end_; }

  /// The value a write op stores: unique per (segment phase, op), so a read
  /// result names the write it observed.
  std::string value_of(std::size_t op) const {
    return "v" + std::to_string(value_tag_) + "." + std::to_string(op);
  }

 private:
  std::string encode(const Send& s) const {
    const Op& op = schedule_[s.op];
    service::MsgClientRequest req;
    req.client_id = s.client_id;
    req.seq = s.seq;
    req.op = op.write ? cstruct::OpType::kWrite : cstruct::OpType::kRead;
    req.key = key_name(op.key);
    if (op.write) req.value = value_of(s.op);
    return transport::frame(wire::make_envelope(req).encode());
  }

  void on_frame(const std::string& frame, std::int64_t at) {
    service::MsgClientReply reply;
    try {
      const wire::Envelope env = wire::Envelope::decode(frame);
      if (env.tag != service::MsgClientReply::kTag) return;
      wire::Reader r(env.body);
      reply = service::MsgClientReply::decode(r);
    } catch (const std::exception&) {
      return;
    }
    if (reply.status != service::ReplyStatus::kOk) return;
    const long op = loop_.on_reply(reply.client_id, reply.seq, at);
    if (op < 0) return;
    OpRecord& rec = loop_.records()[static_cast<std::size_t>(op)];
    rec.found = reply.found;
    rec.value = std::move(reply.value);
    rec.trace_id = reply.trace_id;
  }

  void probe_mailboxes(MailboxSink& sink) {
    for (int id = 0; id < cluster_.node_count(); ++id) {
      auto& node = cluster_.node(id);
      if (!node.running()) continue;
      const std::int64_t posted = steady_ns();
      node.post([&sink, posted] {
        const double us = static_cast<double>(steady_ns() - posted) / 1e3;
        std::lock_guard<std::mutex> lock(sink.mu);
        sink.waits_us.push_back(us);
      });
    }
  }

  BenchCluster& cluster_;
  Connections& conns_;
  const std::vector<Op>& schedule_;
  OpenLoop loop_;
  std::uint32_t value_tag_;
  std::int64_t epoch_ = 0;
  std::int64_t end_ = 0;
};

std::int64_t dir_bytes(const std::string& root) {
  namespace fs = std::filesystem;
  std::int64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<std::int64_t>(it->file_size(ec));
  }
  return total;
}

/// Stage gaps of every sampled command whose points all landed on one
/// server's trace ring.
void collect_stages(BenchCluster& cluster, const std::vector<PhaseRunner*>& timed,
                    Stages& out) {
  struct Points {
    std::int64_t at[7] = {-1, -1, -1, -1, -1, -1, -1};
  };
  std::unordered_map<std::uint64_t, Points> by_trace;
  for (int i = 0; i < BenchCluster::kServers; ++i) {
    std::unordered_map<std::uint64_t, Points> local;
    for (const util::TraceEvent& e : cluster.node(cluster.server_id(i)).trace().snapshot()) {
      const auto p = static_cast<std::size_t>(e.point);
      if (e.trace_id == 0 || p >= 7) continue;
      local[e.trace_id].at[p] = static_cast<std::int64_t>(e.ts_us);
    }
    for (auto& [id, pts] : local) {
      // A command is received on one server only; keep that server's view.
      if (pts.at[static_cast<int>(util::TracePoint::kClientRecv)] >= 0) by_trace[id] = pts;
    }
  }
  const auto gap = [](const Points& p, util::TracePoint a, util::TracePoint b) -> double {
    const std::int64_t x = p.at[static_cast<int>(a)];
    const std::int64_t y = p.at[static_cast<int>(b)];
    return x >= 0 && y >= x ? static_cast<double>(y - x) : -1;
  };
  using TP = util::TracePoint;
  for (const auto& [id, p] : by_trace) {
    if (const double g = gap(p, TP::kClientRecv, TP::kBatchFlush); g >= 0) out.batch_wait_us.push_back(g);
    if (const double g = gap(p, TP::kBatchFlush, TP::kLearned); g >= 0) out.quorum_us.push_back(g);
    if (const double g = gap(p, TP::kLearned, TP::kApplied); g >= 0) out.apply_us.push_back(g);
    if (const double g = gap(p, TP::kApplied, TP::kReplySent); g >= 0) out.reply_us.push_back(g);
  }
  for (const PhaseRunner* runner : timed) {
    for (const OpRecord& rec : runner->loop().records()) {
      if (rec.trace_id == 0 || rec.attempts != 1 || rec.reply_ns < 0) continue;
      const auto it = by_trace.find(rec.trace_id);
      if (it == by_trace.end()) continue;
      const double server = gap(it->second, TP::kClientRecv, TP::kReplySent);
      if (server < 0) continue;
      const double client = static_cast<double>(rec.reply_ns - rec.first_send_ns) / 1e3;
      out.client_gap_us.push_back(std::max(0.0, client - server));
    }
  }
}

}  // namespace

SegmentResult run_segment(const SegmentSpec& spec) {
  // Ticks of the kernel's timer slack would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  SegmentResult result;
  MailboxSink sink;  // outlives the cluster: its closures may run at stop
  std::vector<std::vector<Op>> schedules;
  schedules.reserve(spec.phases.size() + 1);
  // Warm-up: puts on every connection at once, so each server's links are
  // dialed before the timed phases start.
  schedules.emplace_back();
  for (std::uint32_t i = 0; i < 2 * kConns; ++i) schedules[0].push_back(Op{0, true, 0xFFFFFF00u + i});
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    schedules.push_back(make_schedule(spec.phases[i].schedule, spec.seed * 131 + i));
  }

  namespace fs = std::filesystem;
  if (!spec.data_root.empty()) {
    fs::remove_all(spec.data_root);
    fs::create_directories(spec.data_root);
  }

  std::vector<std::unique_ptr<PhaseRunner>> runners;
  std::vector<PhaseRunner*> timed;
  {
    const std::int64_t t0 = steady_ns();
    ClusterSpec cs;
    cs.data_root = spec.data_root;
    cs.trace_sample_every = spec.trace_every;
    cs.seed = spec.seed;
    BenchCluster cluster(cs);
    cluster.start();
    Connections conns(cluster);

    // Set-up ends with the first committed reply.
    runners.push_back(std::make_unique<PhaseRunner>(cluster, conns, schedules[0], 1, 0));
    PhaseRunner& warm = *runners.back();
    warm.run(0, nullptr);
    std::int64_t first_reply = -1;
    for (const OpRecord& rec : warm.loop().records()) {
      if (rec.reply_ns < 0) throw std::runtime_error("cluster never answered a warm-up op");
      if (first_reply < 0 || rec.reply_ns < first_reply) first_reply = rec.reply_ns;
    }
    result.setup_s = static_cast<double>(warm.epoch_ns() + first_reply - t0) / 1e9;

    for (std::size_t i = 0; i < spec.phases.size(); ++i) {
      const Phase& phase = spec.phases[i];
      runners.push_back(std::make_unique<PhaseRunner>(
          cluster, conns, schedules[i + 1], (i + 1) * 1'000'000 + 1,
          static_cast<std::uint32_t>(i + 1)));
      PhaseRunner& runner = *runners.back();
      const std::int64_t cpu0 = cluster_cpu_ns();
      runner.run(phase.timed ? spec.mailbox_probe_ns : 0, &sink);
      const std::int64_t cpu1 = cluster_cpu_ns();
      OpenLoop& loop = runner.loop();
      result.sessions = std::max(result.sessions, loop.sessions_opened());
      if (!phase.timed) continue;
      timed.push_back(&runner);
      result.cpu_ms += static_cast<double>(cpu1 - cpu0) / 1e6;
      result.attempted += schedules[i + 1].size();
      const struct mallinfo2 heap = ::mallinfo2();
      result.heap_mb = std::max(result.heap_mb,
                                static_cast<double>(heap.uordblks + heap.hblkhd) / (1 << 20));
      result.failed += loop.failed();
      result.unavail_ms = std::max(
          result.unavail_ms,
          static_cast<double>(longest_unavailable_ns(schedules[i + 1], loop.records(),
                                                     runner.end_ns())) / 1e6);
      for (std::size_t k = 0; k < loop.records().size(); ++k) {
        const OpRecord& rec = loop.records()[k];
        const double at = static_cast<double>(schedules[i + 1][k].at_ns);
        result.late_us.push_back((static_cast<double>(rec.first_send_ns) - at) / 1e3);
        if (rec.reply_ns >= 0) {
          result.lat_us.push_back((static_cast<double>(rec.reply_ns) - at) / 1e3);
        }
      }
    }

    if (spec.trace_every > 0) collect_stages(cluster, timed, result.stages);

    // --- correctness -------------------------------------------------------
    // Each server's state is read in one task on its own loop, so store,
    // history and applied count belong to the same instant. The servers
    // learn asynchronously: wait (bounded) until both hold the same number
    // of commands, all applied, before comparing them.
    struct ServerState {
      std::map<std::string, std::string> store;
      cstruct::History learned;
      std::size_t applied = 0;
    };
    std::vector<ServerState> servers(BenchCluster::kServers);
    const auto settled = [&servers] {
      for (const ServerState& st : servers) {
        if (st.applied != st.learned.size() || st.learned.size() != servers[0].learned.size()) {
          return false;
        }
      }
      return true;
    };
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      for (int i = 0; i < BenchCluster::kServers; ++i) {
        auto* f = &cluster.frontend(i);
        servers[static_cast<std::size_t>(i)] = cluster.node(cluster.server_id(i)).call([f] {
          return ServerState{f->store_data(), f->learned(), f->applied()};
        });
      }
      if (settled()) break;
    }
    const auto fail = [&result](const std::string& why) {
      if (result.correct) result.error = why;
      result.correct = false;
    };

    // Every issued op's command id.
    std::unordered_set<std::uint64_t> issued_ids;
    for (const auto& r : runners) {
      for (const OpRecord& rec : r->loop().records()) {
        if (rec.first_send_ns >= 0) issued_ids.insert(service::session_command_id(rec.client_id, rec.seq));
      }
    }
    std::size_t acked = 0;
    for (const auto& r : runners) {
      for (const OpRecord& rec : r->loop().records()) acked += rec.reply_ns >= 0 ? 1 : 0;
    }
    result.committed = acked;

    if (!settled()) fail("servers did not converge on one applied history");
    if (servers[0].learned != servers[1].learned) fail("servers' learned histories differ");
    if (servers[0].store != servers[1].store) fail("servers' stores differ");
    std::unordered_set<std::uint64_t> learned_ids;
    std::map<std::string, std::string> replay;
    for (const cstruct::Command& c : servers[0].learned.sequence()) {
      if (!learned_ids.insert(c.id).second) fail("a command was learned twice");
      if (issued_ids.count(c.id) == 0) fail("a learned command was never issued");
      if (c.type == cstruct::OpType::kWrite) replay[c.key] = c.value;
    }
    if (learned_ids.size() < acked) fail("fewer commands learned than acknowledged");
    if (replay != servers[0].store) fail("store differs from the learned history replayed");

    // Acknowledged writes are learned; a read returns a value written to its
    // key, and finds nothing only if no write to that key had been
    // acknowledged before the read was sent.
    std::map<std::string, std::int64_t> first_ack;  // key -> earliest write reply
    std::map<std::string, std::string> value_key;   // value -> key it was written to
    for (std::size_t p = 0; p < runners.size(); ++p) {
      const auto& recs = runners[p]->loop().records();
      for (std::size_t k = 0; k < recs.size(); ++k) {
        const Op& op = schedules[p][k];
        if (!op.write) continue;
        value_key[runners[p]->value_of(k)] = key_name(op.key);
        if (recs[k].reply_ns < 0) continue;
        const std::int64_t at = runners[p]->epoch_ns() + recs[k].reply_ns;
        auto [it, fresh] = first_ack.emplace(key_name(op.key), at);
        if (!fresh) it->second = std::min(it->second, at);
        if (learned_ids.count(service::session_command_id(recs[k].client_id, recs[k].seq)) == 0) {
          fail("an acknowledged write is missing from the learned history");
        }
      }
    }
    for (std::size_t p = 0; p < runners.size(); ++p) {
      const auto& recs = runners[p]->loop().records();
      for (std::size_t k = 0; k < recs.size(); ++k) {
        const Op& op = schedules[p][k];
        if (op.write || recs[k].reply_ns < 0) continue;
        if (recs[k].found) {
          const auto it = value_key.find(recs[k].value);
          if (it == value_key.end() || it->second != key_name(op.key)) {
            fail("a read returned a value never written to its key");
          }
          continue;
        }
        const auto it = first_ack.find(key_name(op.key));
        if (it != first_ack.end() && it->second < runners[p]->epoch_ns() + recs[k].first_send_ns) {
          fail("a read missed a write acknowledged before it was sent");
        }
      }
    }

    result.learned = std::move(servers[0].learned);
    cluster.stop();
    for (const char* name :
         {"net.sent", "net.bytes_sent", "net.backpressure.drops", "net.conn.drops",
          "net.flush.batch.flushes", "net.flush.batch.frames", "svc.batches",
          "svc.batched_commands", "svc.retries", "svc.duplicates", "gen.2b_full_sent",
          "gen.2b_delta_sent", "gen.2a_resyncs", "gen.2b_resyncs", "gen.rounds_started", "gen.collisions_detected",
          "gen.fast_collisions_detected"}) {
      result.counters[name] = cluster.counter_sum(name);
    }
    result.disk_writes = cluster.counter_match_sum("acceptor.", ".disk_writes");
    if (!spec.data_root.empty()) result.data_bytes = dir_bytes(spec.data_root);
  }
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    result.mailbox_wait_us = sink.waits_us;
  }
  if (!spec.data_root.empty()) fs::remove_all(spec.data_root);
  return result;
}

}  // namespace perfbench
