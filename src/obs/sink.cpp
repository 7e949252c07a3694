#include "lesslog/obs/sink.hpp"

#include <ostream>

namespace lesslog::obs {

DeliverySink::~DeliverySink() = default;

void DeliverySink::on_peer(double /*time*/, core::Pid /*peer*/,
                           bool /*live*/) {}

void write_delivery_jsonl(std::ostream& out, double time,
                          const proto::Message& m) {
  out << "{\"t\":" << time << ",\"type\":\"" << proto::type_name(m.type)
      << "\",\"from\":" << m.from.value() << ",\"to\":" << m.to.value()
      << ",\"requester\":" << m.requester.value()
      << ",\"subject\":" << m.subject.value() << ",\"file\":" << m.file.key()
      << ",\"version\":" << m.version
      << ",\"hops\":" << static_cast<int>(m.hop_count)
      << ",\"ok\":" << (m.ok ? "true" : "false") << "}\n";
}

void JsonlSink::on_deliver(double time, const proto::Message& m) {
  write_delivery_jsonl(*out_, time, m);
}

void JsonlSink::on_peer(double time, core::Pid peer, bool live) {
  *out_ << "{\"t\":" << time << ",\"event\":\"peer\",\"peer\":"
        << peer.value() << ",\"live\":" << (live ? "true" : "false")
        << "}\n";
}

}  // namespace lesslog::obs
