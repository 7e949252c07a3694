#include "lesslog/proto/trace.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace lesslog::proto {

Trace::Trace(ShardedSwarm& swarm) : swarm_(&swarm) {
  if (swarm_->shards() > 1) {
    throw std::invalid_argument(
        "Trace: records into one vector, so it needs a single-shard swarm");
  }
  swarm_->add_sink(*this);
}

Trace::~Trace() { swarm_->remove_sink(*this); }

void Trace::on_deliver(double time, const Message& m) {
  records_.push_back(TraceRecord{time, m});
}

std::vector<TraceRecord> Trace::of_type(MsgType t) const {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : records_) {
    if (r.message.type == t) out.push_back(r);
  }
  return out;
}

std::size_t Trace::count(MsgType t) const {
  std::size_t n = 0;
  for (const TraceRecord& r : records_) {
    if (r.message.type == t) ++n;
  }
  return n;
}

std::string Trace::render() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  for (const TraceRecord& r : records_) {
    const Message& m = r.message;
    out << "t=" << r.time << "s  " << std::setw(7) << type_name(m.type)
        << "  P(" << m.from.value() << ") -> P(" << m.to.value() << ")";
    switch (m.type) {
      case MsgType::kGetRequest:
        out << "  target P(" << m.subject.value() << "), hop "
            << static_cast<int>(m.hop_count);
        break;
      case MsgType::kGetReply:
        out << "  " << (m.ok ? "HIT" : "MISS") << " after "
            << static_cast<int>(m.hop_count) << " hops";
        break;
      case MsgType::kUpdatePush:
      case MsgType::kFilePush:
        out << "  file " << m.file.key() << " v" << m.version;
        break;
      case MsgType::kStatusAnnounce:
        out << "  P(" << m.subject.value() << ") "
            << (m.ok ? "live" : "dead");
        break;
      default:
        break;
    }
    out << "\n";
  }
  return out.str();
}

void Trace::write_jsonl(std::ostream& out) const {
  for (const TraceRecord& r : records_) {
    const Message& m = r.message;
    out << "{\"t\":" << r.time << ",\"type\":\"" << type_name(m.type)
        << "\",\"from\":" << m.from.value() << ",\"to\":" << m.to.value()
        << ",\"requester\":" << m.requester.value()
        << ",\"subject\":" << m.subject.value()
        << ",\"file\":" << m.file.key() << ",\"version\":" << m.version
        << ",\"hops\":" << static_cast<int>(m.hop_count)
        << ",\"ok\":" << (m.ok ? "true" : "false") << "}\n";
  }
}

}  // namespace lesslog::proto
