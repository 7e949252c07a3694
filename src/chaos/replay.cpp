#include "lesslog/chaos/replay.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lesslog/util/minijson.hpp"

namespace lesslog::chaos {

namespace {

/// Doubles at round-trip precision (%.17g survives text -> double -> text).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

const char* b(bool v) { return v ? "true" : "false"; }

void emit_rule(std::ostringstream& os, const RuleRecord& rec) {
  const proto::FaultRule& r = rec.rule;
  os << "{\"epoch\":" << rec.epoch << ",\"kind\":\""
     << proto::fault_kind_name(r.kind) << "\",\"start\":" << num(r.start)
     << ",\"stop\":" << num(r.stop)
     << ",\"probability\":" << num(r.probability)
     << ",\"p_good_to_bad\":" << num(r.p_good_to_bad)
     << ",\"p_bad_to_good\":" << num(r.p_bad_to_good)
     << ",\"loss_good\":" << num(r.loss_good)
     << ",\"loss_bad\":" << num(r.loss_bad)
     << ",\"extra_delay\":" << num(r.extra_delay) << ",\"group\":[";
  for (std::size_t i = 0; i < r.group.size(); ++i) {
    if (i != 0) os << ',';
    os << r.group[i];
  }
  os << "]}";
}

}  // namespace

std::string artifact_to_json(const Report& report) {
  const ChaosConfig& c = report.config;
  std::ostringstream os;
  os << "{\"schema\":\"lesslog.chaos\",\"version\":2,";
  // seed as a string: JSON numbers are doubles and lose 64-bit integers.
  os << "\"config\":{\"m\":" << c.m << ",\"b\":" << c.b
     << ",\"nodes\":" << c.nodes << ",\"seed\":\"" << c.seed << "\""
     << ",\"epochs\":" << c.epochs
     << ",\"epoch_length\":" << num(c.epoch_length)
     << ",\"fault_intensity\":" << num(c.fault_intensity)
     << ",\"files\":" << c.files << ",\"get_rate\":" << num(c.get_rate)
     << ",\"shards\":" << c.shards << ",\"bursts\":" << b(c.bursts)
     << ",\"partitions\":" << b(c.partitions)
     << ",\"corruption\":" << b(c.corruption)
     << ",\"duplicates\":" << b(c.duplicates)
     << ",\"delay_spikes\":" << b(c.delay_spikes)
     << ",\"churn\":" << b(c.churn)
     << ",\"silent_crashes\":" << b(c.silent_crashes)
     << ",\"swim\":" << b(c.swim) << ",\"net_jitter\":" << num(c.net_jitter)
     << ",\"adaptive_timeouts\":" << b(c.adaptive_timeouts)
     << ",\"hedge_percentile\":" << num(c.hedge_percentile)
     << ",\"suspicion_routing\":" << b(c.suspicion_routing)
     << ",\"busy_budget\":" << c.busy_budget
     << ",\"busy_refill\":" << num(c.busy_refill) << "},";
  os << "\"violations\":[";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const Violation& v = report.violations[i];
    if (i != 0) os << ',';
    os << "{\"epoch\":" << v.epoch << ",\"check\":" << quoted(v.check)
       << ",\"detail\":" << quoted(v.detail) << '}';
  }
  os << "],";
  os << "\"schedule\":{\"rules\":[";
  for (std::size_t i = 0; i < report.record.rules.size(); ++i) {
    if (i != 0) os << ',';
    emit_rule(os, report.record.rules[i]);
  }
  os << "],\"ops\":[";
  for (std::size_t i = 0; i < report.record.ops.size(); ++i) {
    const OpRecord& op = report.record.ops[i];
    if (i != 0) os << ',';
    os << "{\"time\":" << num(op.time) << ",\"kind\":\""
       << op_kind_name(op.kind) << "\",\"pid\":" << op.pid << '}';
  }
  os << "]},";
  os << "\"stats\":{\"burst_dropped\":" << report.injected.burst_dropped
     << ",\"partition_dropped\":" << report.injected.partition_dropped
     << ",\"duplicated\":" << report.injected.duplicated
     << ",\"corrupted\":" << report.injected.corrupted
     << ",\"delay_spikes\":" << report.injected.delay_spikes
     << ",\"messages_sent\":" << report.messages_sent
     << ",\"repair_pushes\":" << report.repair_pushes
     << ",\"workload_issued\":" << report.workload_issued
     << ",\"workload_completed\":" << report.workload_completed
     << ",\"workload_faults\":" << report.workload_faults
     << ",\"rtt_samples\":" << report.reliability.rtt_samples
     << ",\"hedges_launched\":" << report.reliability.hedges_launched
     << ",\"hedge_won\":" << report.reliability.hedge_won
     << ",\"hedge_cancelled\":" << report.reliability.hedge_cancelled
     << ",\"busy_received\":" << report.reliability.busy_received
     << ",\"busy_shed\":" << report.reliability.busy_shed
     << ",\"sim_time\":" << num(report.sim_time);
  if (c.swim) {
    os << ",\"swim\":{\"pings\":" << report.swim.pings
       << ",\"ping_reqs\":" << report.swim.ping_reqs
       << ",\"acks\":" << report.swim.acks
       << ",\"suspects\":" << report.swim.suspects
       << ",\"confirms\":" << report.swim.confirms
       << ",\"false_suspects\":" << report.swim.false_suspects
       << ",\"false_confirms\":" << report.swim.false_confirms
       << ",\"refutations\":" << report.swim.refutations
       << ",\"incarnation_bumps\":" << report.swim.incarnation_bumps
       << ",\"gossip_bytes\":" << report.swim.gossip_bytes
       << ",\"detection_latency\":[";
    for (std::size_t i = 0; i < report.detection_latency.size(); ++i) {
      if (i != 0) os << ',';
      os << num(report.detection_latency[i]);
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

bool write_artifact(const std::string& path, const Report& report) {
  std::ofstream out(path);
  if (!out) return false;
  out << artifact_to_json(report) << '\n';
  return static_cast<bool>(out);
}

namespace {

const util::minijson::Value& require(const util::minijson::Value& obj,
                                     const char* key) {
  const util::minijson::Value* v = obj.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(
        std::string("chaos artifact: missing key '") + key + "'");
  }
  return *v;
}

/// A key for a setting that is now a constant. Artifacts written while
/// it was a config field carry it; it is accepted only at the constant's
/// value, so an edited artifact cannot quietly replay a different run.
[[noreturn]] void reject_fixed(const char* key, const std::string& value) {
  throw std::invalid_argument(std::string("chaos artifact: '") + key +
                              "' is fixed at " + value +
                              "; no other value can be replayed");
}

void require_fixed(const util::minijson::Value& cfg, const char* key,
                   double value) {
  const util::minijson::Value* v = cfg.find(key);
  if (v != nullptr && !(v->is_number() && v->number == value)) {
    reject_fixed(key, num(value));
  }
}

}  // namespace

ChaosConfig config_from_artifact(const std::string& json) {
  std::string parse_error;
  const std::optional<util::minijson::Value> doc =
      util::minijson::parse(json, &parse_error);
  if (!doc.has_value()) {
    throw std::invalid_argument("chaos artifact: " + parse_error);
  }
  if (!doc->is_object()) {
    throw std::invalid_argument("chaos artifact: not a JSON object");
  }
  const util::minijson::Value& schema = require(*doc, "schema");
  if (!schema.is_string() || schema.string != "lesslog.chaos") {
    throw std::invalid_argument("chaos artifact: wrong schema tag");
  }
  const util::minijson::Value& cfg = require(*doc, "config");
  if (!cfg.is_object()) {
    throw std::invalid_argument("chaos artifact: config must be an object");
  }
  // Version 1 predates the single timeline driver. Its S > 1 and SWIM
  // runs already used that driver and replay unchanged; its other runs
  // drew GET arrivals from the engine stream and drained late restarts
  // at the epoch end, a schedule no build can reproduce any more.
  int version = 1;
  if (const util::minijson::Value* v = doc->find("version")) {
    if (!v->is_number() || (v->number != 1.0 && v->number != 2.0)) {
      throw std::invalid_argument("chaos artifact: unsupported version");
    }
    version = static_cast<int>(v->number);
  }
  ChaosConfig out;
  out.m = static_cast<int>(require(cfg, "m").number);
  out.b = static_cast<int>(require(cfg, "b").number);
  out.nodes = static_cast<std::uint32_t>(require(cfg, "nodes").number);
  out.seed = std::stoull(require(cfg, "seed").string);
  out.epochs = static_cast<int>(require(cfg, "epochs").number);
  out.epoch_length = require(cfg, "epoch_length").number;
  out.fault_intensity = require(cfg, "fault_intensity").number;
  out.files = static_cast<int>(require(cfg, "files").number);
  out.get_rate = require(cfg, "get_rate").number;
  // Absent in pre-sharding artifacts, which ran one shard.
  if (const util::minijson::Value* shards = cfg.find("shards")) {
    out.shards = static_cast<std::size_t>(shards->number);
  }
  out.bursts = require(cfg, "bursts").boolean;
  out.partitions = require(cfg, "partitions").boolean;
  out.corruption = require(cfg, "corruption").boolean;
  out.duplicates = require(cfg, "duplicates").boolean;
  out.delay_spikes = require(cfg, "delay_spikes").boolean;
  out.churn = require(cfg, "churn").boolean;
  out.silent_crashes = require(cfg, "silent_crashes").boolean;
  // SWIM keys are absent in pre-membership artifacts; those replay in
  // oracle mode.
  if (const util::minijson::Value* v = cfg.find("swim")) {
    out.swim = v->boolean;
  }
  // Settings that are constants: crashes are always on, and SWIM runs at
  // its protocol constants.
  if (const util::minijson::Value* v = cfg.find("crashes");
      v != nullptr && !(v->is_bool() && v->boolean)) {
    reject_fixed("crashes", "true");
  }
  require_fixed(cfg, "swim_period", membership::kProtocolPeriod);
  require_fixed(cfg, "swim_direct_timeout", membership::kDirectTimeout);
  require_fixed(cfg, "swim_proxies", membership::kProxies);
  require_fixed(cfg, "swim_suspect_periods", membership::kSuspectPeriods);
  require_fixed(cfg, "swim_gossip_repeats", membership::kGossipRepeats);
  require_fixed(cfg, "swim_convergence_rounds", kSwimConvergenceRounds);
  if (const util::minijson::Value* v = cfg.find("net_jitter")) {
    out.net_jitter = v->number;
  }
  // Reliability-layer keys are absent in pre-adaptive artifacts; those
  // replay with the layer off (its byte-identical default).
  if (const util::minijson::Value* v = cfg.find("adaptive_timeouts")) {
    out.adaptive_timeouts = v->boolean;
  }
  if (const util::minijson::Value* v = cfg.find("hedge_percentile")) {
    out.hedge_percentile = v->number;
  }
  if (const util::minijson::Value* v = cfg.find("suspicion_routing")) {
    out.suspicion_routing = v->boolean;
  }
  if (const util::minijson::Value* v = cfg.find("busy_budget")) {
    out.busy_budget = static_cast<int>(v->number);
  }
  if (const util::minijson::Value* v = cfg.find("busy_refill")) {
    out.busy_refill = v->number;
  }
  if (version == 1 && out.shards == 1 && !out.swim) {
    throw std::invalid_argument(
        "chaos artifact: version 1 single-shard oracle run cannot be "
        "replayed: it ran on the removed serial chaos driver, whose "
        "schedule the timeline driver does not reproduce");
  }
  out.validate();
  return out;
}

Report replay(const std::string& json) {
  Driver driver(config_from_artifact(json));
  return driver.run();
}

bool same_outcome(const Report& a, const Report& b) {
  return a.violations == b.violations && a.record == b.record &&
         a.injected == b.injected &&
         a.workload_issued == b.workload_issued &&
         a.workload_completed == b.workload_completed &&
         a.workload_faults == b.workload_faults &&
         a.messages_sent == b.messages_sent &&
         // The reliability ledger (hedge and shed accounting included)
         // must replay exactly; with the layer off every cell but
         // issued/ok/faults is zero on both sides.
         a.reliability == b.reliability &&
         // Oracle runs leave both at their zero defaults; SWIM runs must
         // reproduce the detector's whole ledger, not just the workload's.
         a.swim == b.swim && a.detection_latency == b.detection_latency;
}

}  // namespace lesslog::chaos
