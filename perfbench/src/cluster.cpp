#include "cluster.hpp"

#include <chrono>

namespace perfbench {

using namespace mcp;

BenchCluster::BenchCluster(const ClusterSpec& spec) {
  const int n = kCoordinators + kAcceptors + kServers;
  std::vector<sim::NodeId> coords;
  std::vector<sim::NodeId> acceptors;
  std::vector<sim::NodeId> servers;
  for (int i = 0; i < kCoordinators; ++i) coords.push_back(i);
  for (int i = 0; i < kAcceptors; ++i) acceptors.push_back(acceptor_id(i));
  for (int i = 0; i < kServers; ++i) servers.push_back(server_id(i));

  policy_ = paxos::PatternPolicy::always_single(coords);
  config_ = std::make_unique<genpaxos::Config<cstruct::History>>();
  config_->acceptors = acceptors;
  config_->learners = servers;
  config_->proposers = servers;
  config_->policy = policy_.get();
  config_->f = 1;
  config_->bottom = cstruct::History(&conflicts_);

  for (int id = 0; id < n; ++id) {
    transport::TcpConfig tc;
    tc.self = id;
    auto t = std::make_unique<transport::TcpTransport>(tc);
    t->bind_and_listen();
    transports_.push_back(std::move(t));
  }
  for (int id = 0; id < n; ++id) {
    for (int peer = 0; peer < n; ++peer) {
      if (peer == id) continue;
      transports_[static_cast<std::size_t>(id)]->set_peer(
          peer, {"127.0.0.1", transports_[static_cast<std::size_t>(peer)]->listen_port()});
    }
  }

  service::Frontend::Options fopt;
  fopt.batch_size = 8;
  fopt.batch_delay = 5;
  fopt.trace_sample_every = spec.trace_sample_every;
  for (int id = 0; id < n; ++id) {
    runtime::NodeOptions no;
    no.id = id;
    no.tick = std::chrono::microseconds(200);
    no.rng_seed = spec.seed + static_cast<std::uint64_t>(id);
    if (!spec.data_root.empty()) no.data_dir = spec.data_root + "/node" + std::to_string(id);
    auto node = std::make_unique<runtime::Node>(no, *transports_[static_cast<std::size_t>(id)]);
    if (spec.trace_sample_every > 0) node->trace().set_enabled(true);
    if (id < kCoordinators) {
      node->make_process<genpaxos::GenCoordinator<cstruct::History>>(*config_);
    } else if (id < kCoordinators + kAcceptors) {
      node->make_process<genpaxos::GenAcceptor<cstruct::History>>(*config_);
    } else {
      frontends_.push_back(&node->make_process<service::Frontend>(*config_, fopt));
    }
    nodes_.push_back(std::move(node));
  }
}

BenchCluster::~BenchCluster() { stop(); }

void BenchCluster::start() {
  for (auto& node : nodes_) node->start();
}

void BenchCluster::stop() {
  for (auto& node : nodes_) node->stop();
  for (auto& t : transports_) t->stop();
}

std::uint16_t BenchCluster::server_port(int i) const {
  return transports_.at(static_cast<std::size_t>(server_id(i)))->listen_port();
}

std::int64_t BenchCluster::counter_sum(const std::string& name) {
  std::int64_t total = 0;
  for (auto& node : nodes_) {
    runtime::Node* n = node.get();
    total += n->call([n, &name] { return n->metrics().counter(name); });
  }
  return total;
}

std::int64_t BenchCluster::counter_match_sum(const std::string& prefix,
                                             const std::string& suffix) {
  std::int64_t total = 0;
  for (auto& node : nodes_) {
    runtime::Node* n = node.get();
    const auto counters = n->call([n, &prefix] { return n->metrics().counters_with_prefix(prefix); });
    for (const auto& [name, value] : counters) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        total += value;
      }
    }
  }
  return total;
}

}  // namespace perfbench
