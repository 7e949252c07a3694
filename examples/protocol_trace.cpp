// Protocol trace: every datagram of a small LessLog exchange, printed as
// it crosses the simulated wire — the paper's algorithms as an actual
// message sequence, recorded with proto::Trace.
//
//   $ ./examples/protocol_trace [--jsonl path]
#include <fstream>
#include <iostream>

#include "lesslog/proto/trace.hpp"
#include "lesslog/util/hashing.hpp"

int main(int argc, char** argv) {
  using namespace lesslog;
  using core::Pid;

  proto::ShardedSwarm::Config cfg;
  cfg.m = 4;
  cfg.b = 0;
  cfg.nodes = 16;
  cfg.seed = 3;
  cfg.net.base_latency = 0.010;
  cfg.net.jitter = 0.0;
  proto::ShardedSwarm swarm(cfg);
  proto::Trace trace(swarm);

  std::cout << "16-peer LessLog swarm, 10 ms links. Messages on the wire:\n";

  // A ψ-key targeting P(4) keeps the narrative on the paper's example.
  std::uint64_t key = 0;
  while (util::psi_u64(key, 4) != 4) ++key;

  std::cout << "\n-- INSERT (target P(4) = ψ(key)), issued at P(2) --\n";
  const core::FileId f = swarm.insert_named(key, Pid{2});
  swarm.settle();
  std::cout << trace.render();
  trace.clear();

  std::cout << "\n-- GETFILE from P(8): the paper's P(8)->P(0)->P(4) walk --\n";
  proto::GetResult result;
  swarm.get(f, Pid{4}, Pid{8},
            [&](const proto::GetResult& r) { result = r; });
  swarm.settle();
  std::cout << trace.render() << "   -> served in " << result.hops
            << " hops, " << 1000.0 * result.latency << " ms end to end\n";
  trace.clear();

  std::cout << "\n-- REPLICATEFILE at overloaded P(4) (bitwise placement) --\n";
  const auto replica = swarm.replicate(
      f, Pid{4}, Pid{4}, [](Pid p) { return p == Pid{4}; });
  swarm.settle();
  std::cout << trace.render() << "   -> replica created at P("
            << replica->value() << ")\n";
  trace.clear();

  std::cout << "\n-- UPDATEFILE to version 2: top-down broadcast --\n";
  swarm.update(f, Pid{4}, 2, Pid{7});
  swarm.settle();
  std::cout << trace.render();
  trace.clear();

  std::cout << "\n-- P(5) departs gracefully (replica holder!) --\n";
  swarm.depart(Pid{5});
  swarm.settle();
  std::cout << trace.render();
  trace.clear();

  std::cout << "\n-- GETFILE from P(13) reroutes around the departure --\n";
  swarm.get(f, Pid{4}, Pid{13},
            [&](const proto::GetResult& r) { result = r; });
  swarm.settle();
  std::cout << trace.render() << "   -> served in " << result.hops
            << " hops despite the replica holder's departure\n";

  if (argc > 2 && std::string(argv[1]) == "--jsonl") {
    std::ofstream out(argv[2]);
    trace.write_jsonl(out);
    std::cout << "\ntrace written to " << argv[2] << "\n";
  }
  std::cout << "\ntotal datagrams: " << swarm.messages_sent()
            << " (" << swarm.bytes_sent() << " bytes)\n";
  return 0;
}
