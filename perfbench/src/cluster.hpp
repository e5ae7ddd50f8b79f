#pragma once

// A live single-group KV cluster over loopback TCP, built from the public
// runtime pieces (TcpTransport, runtime::Node, the genpaxos roles and
// service::Frontend) with the layout runtime::KvServiceCluster uses:
// one coordinator, then three acceptors, then two servers. Unlike that
// class it can put every node on FileStorage, so one construction path serves the
// in-memory and the durable segments alike.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cstruct/history.hpp"
#include "genpaxos/engine.hpp"
#include "paxos/round_config.hpp"
#include "runtime/node.hpp"
#include "service/frontend.hpp"
#include "transport/tcp_transport.hpp"

namespace perfbench {

struct ClusterSpec {
  /// Non-empty: every node persists under <data_root>/node<id>.
  std::string data_root;
  /// Frontend trace sampling (0 = off); also enables every node's recorder.
  std::size_t trace_sample_every = 0;
  std::uint64_t seed = 1;
};

class BenchCluster {
 public:
  static constexpr int kCoordinators = 1;
  static constexpr int kAcceptors = 3;
  static constexpr int kServers = 2;

  explicit BenchCluster(const ClusterSpec& spec);
  ~BenchCluster();

  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  void start();
  /// Stops every node; node objects (and their metrics and traces) stay
  /// readable afterwards.
  void stop();

  int node_count() const { return static_cast<int>(nodes_.size()); }
  mcp::runtime::Node& node(int id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  int server_id(int i) const { return kCoordinators + kAcceptors + i; }
  int acceptor_id(int i) const { return kCoordinators + i; }
  std::uint16_t server_port(int i) const;
  mcp::service::Frontend& frontend(int i) { return *frontends_.at(static_cast<std::size_t>(i)); }

  /// Sum of one counter over every node.
  std::int64_t counter_sum(const std::string& name);
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix`, over every node.
  std::int64_t counter_match_sum(const std::string& prefix, const std::string& suffix);

 private:
  mcp::cstruct::KeyConflict conflicts_;
  std::unique_ptr<mcp::paxos::RoundPolicy> policy_;
  std::unique_ptr<mcp::genpaxos::Config<mcp::cstruct::History>> config_;
  std::vector<std::unique_ptr<mcp::transport::TcpTransport>> transports_;
  // After config_/policy_ and the transports: nodes hold references to all.
  std::vector<std::unique_ptr<mcp::runtime::Node>> nodes_;
  std::vector<mcp::service::Frontend*> frontends_;
};

}  // namespace perfbench
