// Replay artifacts: JSON round-trip, tamper rejection, and the core
// acceptance property — a violating run replays bit-identically from its
// artifact.
#include "lesslog/chaos/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "lesslog/util/minijson.hpp"

namespace lesslog::chaos {
namespace {

ChaosConfig broken_config() {
  ChaosConfig cfg;
  cfg.seed = 2;
  cfg.epochs = 3;
  cfg.epoch_length = 20.0;
  cfg.files = 32;
  cfg.get_rate = 15.0;
  cfg.silent_crashes = true;  // guarantees violations
  return cfg;
}

TEST(Replay, ArtifactIsValidJsonWithSchemaTag) {
  Report report = Driver(broken_config()).run();
  const std::string json = artifact_to_json(report);
  const auto doc = util::minijson::parse(json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const util::minijson::Value* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "lesslog.chaos");
  EXPECT_NE(doc->find("config"), nullptr);
  EXPECT_NE(doc->find("violations"), nullptr);
  EXPECT_NE(doc->find("schedule"), nullptr);
  EXPECT_NE(doc->find("stats"), nullptr);
}

TEST(Replay, ConfigSurvivesTheRoundTrip) {
  ChaosConfig cfg = broken_config();
  cfg.fault_intensity = 0.625;  // representable exactly
  cfg.seed = 0xDEADBEEFCAFEULL; // exceeds double's integer range
  Report report;
  report.config = cfg;
  const ChaosConfig back = config_from_artifact(artifact_to_json(report));
  EXPECT_EQ(back.m, cfg.m);
  EXPECT_EQ(back.b, cfg.b);
  EXPECT_EQ(back.nodes, cfg.nodes);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.epochs, cfg.epochs);
  EXPECT_EQ(back.epoch_length, cfg.epoch_length);
  EXPECT_EQ(back.fault_intensity, cfg.fault_intensity);
  EXPECT_EQ(back.files, cfg.files);
  EXPECT_EQ(back.get_rate, cfg.get_rate);
  EXPECT_EQ(back.silent_crashes, cfg.silent_crashes);
}

TEST(Replay, MalformedArtifactsAreRejected) {
  EXPECT_THROW((void)config_from_artifact("not json"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_artifact("{}"), std::invalid_argument);
  EXPECT_THROW(
      (void)config_from_artifact(R"({"schema":"wrong","config":{}})"),
      std::invalid_argument);
  for (const auto& [json, message] :
       {std::pair<std::string, std::string>{"[1,2]", "not a JSON object"},
        {R"({"schema":"lesslog.chaos","config":3})",
         "config must be an object"}}) {
    try {
      (void)config_from_artifact(json);
      ADD_FAILURE() << json << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << json << ": " << e.what();
    }
  }
}

TEST(Replay, ParseFailureMessageNamesTheSyntaxError) {
  // A corrupt artifact must fail with the parser's diagnosis, not a
  // generic "not a JSON object".
  try {
    (void)config_from_artifact("{\"schema\":\"lesslog.chaos\",");
    FAIL() << "corrupt artifact accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chaos artifact: "), std::string::npos) << what;
    EXPECT_NE(what.find("at byte"), std::string::npos) << what;
  }
}

TEST(Replay, InvalidUnicodeEscapeInArtifactIsDiagnosed) {
  // Regression: \u followed by non-hex used to pass the parser verbatim;
  // a bit-flipped artifact could sail into config extraction.
  try {
    (void)config_from_artifact(
        "{\"schema\":\"lesslog.chaos\",\"note\":\"\\uZZZZ\"}");
    FAIL() << "invalid \\u escape accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\\u escape"), std::string::npos) << what;
  }
}

TEST(Replay, ViolatingRunReplaysBitIdentically) {
  // The acceptance property: run broken recovery, capture the artifact,
  // replay from the artifact alone — same schedule, same violations.
  Report original = Driver(broken_config()).run();
  ASSERT_FALSE(original.clean());
  const std::string json = artifact_to_json(original);
  Report replayed = replay(json);
  EXPECT_TRUE(same_outcome(original, replayed));
  EXPECT_EQ(original.violations, replayed.violations);
  EXPECT_EQ(original.record, replayed.record);
  // And the replay's own artifact is byte-identical too.
  EXPECT_EQ(json, artifact_to_json(replayed));
}

/// The artifact rewritten as the version-1 format wrote it: the version
/// number is the only difference between the two formats.
std::string as_version_1(const std::string& json) {
  const std::string v2 = "\"version\":2,";
  const std::size_t at = json.find(v2);
  EXPECT_NE(at, std::string::npos) << json.substr(0, 64);
  std::string out = json;
  if (at != std::string::npos) out.replace(at, v2.size(), "\"version\":1,");
  return out;
}

TEST(Replay, VersionOneSingleShardOracleArtifactIsRejected) {
  // Version-1 single-shard oracle runs used a driver path that drew GET
  // arrivals from the engine stream; no build reproduces that schedule,
  // so the replay must refuse instead of silently diverging.
  Report report;
  report.config = broken_config();
  const std::string v1 = as_version_1(artifact_to_json(report));
  try {
    (void)config_from_artifact(v1);
    FAIL() << "version-1 single-shard artifact accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chaos artifact: "), std::string::npos) << what;
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
  }
  // Artifacts from before the shard knob carry no "shards" key: one
  // shard, rejected the same way.
  std::string no_shards = v1;
  const std::size_t at = no_shards.find(",\"shards\":1");
  ASSERT_NE(at, std::string::npos);
  no_shards.erase(at, std::string(",\"shards\":1").size());
  EXPECT_THROW((void)config_from_artifact(no_shards),
               std::invalid_argument);
  // A version this build does not know is rejected too.
  std::string v9 = v1;
  v9.replace(v9.find("\"version\":1"), 11, "\"version\":9");
  EXPECT_THROW((void)config_from_artifact(v9), std::invalid_argument);
}

TEST(Replay, VersionOneShardedAndSwimArtifactsStillReplay) {
  // S > 1 and SWIM runs always used the timeline driver, so their
  // version-1 artifacts replay bit-identically.
  ChaosConfig sharded = broken_config();
  sharded.shards = 2;
  const Report original = Driver(sharded).run();
  ASSERT_FALSE(original.clean());
  const Report replayed = replay(as_version_1(artifact_to_json(original)));
  EXPECT_TRUE(same_outcome(original, replayed));

  ChaosConfig swim = broken_config();
  swim.silent_crashes = false;
  swim.swim = true;
  Report swim_report;
  swim_report.config = swim;
  const ChaosConfig back =
      config_from_artifact(as_version_1(artifact_to_json(swim_report)));
  EXPECT_TRUE(back.swim);
  EXPECT_EQ(back.shards, 1U);
}

/// `json` with `entries` ("key":value pairs joined by commas) spliced in
/// at the front of its config object.
std::string with_config_keys(const std::string& json,
                             const std::string& entries) {
  const std::string open = "\"config\":{";
  const std::size_t at = json.find(open);
  EXPECT_NE(at, std::string::npos) << json.substr(0, 64);
  std::string out = json;
  if (at != std::string::npos) out.insert(at + open.size(), entries + ",");
  return out;
}

TEST(Replay, RetiredKeyAwayFromItsConstantIsRejectedByName) {
  // The SWIM tunables and the crashes toggle are constants. An artifact
  // that names one must carry the constant's value: any other value
  // describes a run this build cannot reproduce.
  Report report;
  report.config = broken_config();
  const std::string json = artifact_to_json(report);
  const std::pair<std::string, std::string> retired[] = {
      {"swim_period", "2"}, {"crashes", "false"}};
  for (const auto& [key, value] : retired) {
    const std::string entry = "\"" + key + "\":" + value;
    try {
      (void)config_from_artifact(with_config_keys(json, entry));
      FAIL() << entry << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("chaos artifact: "), std::string::npos) << what;
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
  }
}

TEST(Replay, RetiredKeysAtTheirConstantsReplay) {
  // Artifacts written while these were config fields carry all seven
  // keys at the values every run used; they replay unchanged.
  const Report original = Driver(broken_config()).run();
  ASSERT_FALSE(original.clean());
  const std::string json = artifact_to_json(original);
  EXPECT_EQ(json.find("swim_period"), std::string::npos);
  const std::string old_format = with_config_keys(
      json,
      "\"crashes\":true,\"swim_period\":1,\"swim_direct_timeout\":0.25,"
      "\"swim_proxies\":3,\"swim_suspect_periods\":3,"
      "\"swim_gossip_repeats\":4,\"swim_convergence_rounds\":128");
  const Report replayed = replay(old_format);
  EXPECT_TRUE(same_outcome(original, replayed));
}

TEST(Replay, WriteArtifactProducesAReloadableFile) {
  Report report = Driver(broken_config()).run();
  const std::string path = ::testing::TempDir() + "lesslog_chaos_artifact.json";
  ASSERT_TRUE(write_artifact(path, report));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const ChaosConfig back = config_from_artifact(buf.str());
  EXPECT_EQ(back.seed, report.config.seed);
  EXPECT_TRUE(back.silent_crashes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lesslog::chaos
