#include <gtest/gtest.h>

#include "core/query_spec.h"
#include "util/json.h"

namespace csj {
namespace {

QuerySpec ValidSpec() {
  QuerySpec spec;
  spec.dataset = "points.bin";
  spec.eps = 0.01;
  return spec;
}

TEST(QuerySpecTest, AlgoNamesRoundTrip) {
  for (QueryAlgo algo :
       {QueryAlgo::kAuto, QueryAlgo::kSSJ, QueryAlgo::kNCSJ, QueryAlgo::kCSJ,
        QueryAlgo::kEgo, QueryAlgo::kCEgo}) {
    QueryAlgo parsed;
    ASSERT_TRUE(ParseQueryAlgo(QueryAlgoName(algo), &parsed))
        << QueryAlgoName(algo);
    EXPECT_EQ(parsed, algo);
  }
  QueryAlgo parsed;
  EXPECT_FALSE(ParseQueryAlgo("bogus", &parsed));
  EXPECT_FALSE(ParseQueryAlgo("", &parsed));
  EXPECT_FALSE(ParseQueryAlgo("CSJ", &parsed));  // names are lowercase
}

TEST(QuerySpecTest, AlgoFamilyPredicates) {
  EXPECT_FALSE(IsTreeAlgo(QueryAlgo::kAuto));
  EXPECT_TRUE(IsTreeAlgo(QueryAlgo::kSSJ));
  EXPECT_TRUE(IsTreeAlgo(QueryAlgo::kNCSJ));
  EXPECT_TRUE(IsTreeAlgo(QueryAlgo::kCSJ));
  EXPECT_FALSE(IsTreeAlgo(QueryAlgo::kEgo));
  EXPECT_TRUE(IsEgoAlgo(QueryAlgo::kEgo));
  EXPECT_TRUE(IsEgoAlgo(QueryAlgo::kCEgo));
  EXPECT_FALSE(IsEgoAlgo(QueryAlgo::kAuto));
  EXPECT_EQ(TreeAlgorithmFor(QueryAlgo::kSSJ), JoinAlgorithm::kSSJ);
  EXPECT_EQ(TreeAlgorithmFor(QueryAlgo::kNCSJ), JoinAlgorithm::kNCSJ);
  EXPECT_EQ(TreeAlgorithmFor(QueryAlgo::kCSJ), JoinAlgorithm::kCSJ);
}

TEST(QuerySpecTest, ValidateAcceptsDefaultsWithEps) {
  EXPECT_TRUE(ValidSpec().Validate().ok());
  // The struct-level contract allows an empty dataset (benches attach data
  // directly); entry points layer their own requirement on top.
  QuerySpec no_dataset;
  no_dataset.eps = 0.5;
  EXPECT_TRUE(no_dataset.Validate().ok());
}

TEST(QuerySpecTest, ValidateRejectsBadRanges) {
  QuerySpec spec = ValidSpec();
  spec.eps = 0.0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec = ValidSpec();
  spec.eps = -1.0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec = ValidSpec();
  spec.window = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec = ValidSpec();
  spec.threads = -1;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QuerySpecTest, ValidateDualJoinRules) {
  QuerySpec spec = ValidSpec();
  spec.dataset_b = "other.bin";
  EXPECT_TRUE(spec.Validate().ok());

  spec.algo = QueryAlgo::kEgo;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.algo = QueryAlgo::kCEgo;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = ValidSpec();
  spec.dataset.clear();
  spec.dataset_b = "other.bin";
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QuerySpecTest, JsonRoundTripIsExact) {
  // FromJson(ToJsonValue(s)) == s, for defaults and for every field set to
  // a non-default value.
  QuerySpec defaults;
  auto round = QuerySpec::FromJson(defaults.ToJsonValue());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, defaults);

  QuerySpec full;
  full.dataset = "a.bin";
  full.dataset_b = "b.bin";
  full.algo = QueryAlgo::kNCSJ;
  full.eps = 0.125;
  full.window = 32;
  full.threads = 4;
  full.deadline_ms = 2500;
  full.mem_budget = 1ull << 30;
  full.output = OutputFormat::kBinary;
  round = QuerySpec::FromJson(full.ToJsonValue());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, full);
}

TEST(QuerySpecTest, JsonRoundTripSurvivesTextSerialization) {
  QuerySpec spec = ValidSpec();
  spec.algo = QueryAlgo::kAuto;
  spec.window = 16;
  const std::string text = json::Write(spec.ToJsonValue());
  const auto doc = json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto round = QuerySpec::FromJson(*doc);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, spec);
}

TEST(QuerySpecTest, FromJsonAbsentFieldsKeepDefaults) {
  json::Value doc = json::Object{};
  doc["eps"] = 0.25;
  const auto spec = QuerySpec::FromJson(doc);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->algo, QueryAlgo::kCSJ);
  EXPECT_EQ(spec->window, 10);
  EXPECT_EQ(spec->threads, 0);
  EXPECT_EQ(spec->output, OutputFormat::kText);
  EXPECT_DOUBLE_EQ(spec->eps, 0.25);
}

TEST(QuerySpecTest, FromJsonIsStrict) {
  json::Value doc = json::Object{};
  doc["eps"] = 0.25;
  doc["bogus"] = 1;
  const auto spec = QuerySpec::FromJson(doc);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("unknown request field 'bogus'"),
            std::string::npos)
      << spec.status().ToString();

  json::Value typed = json::Object{};
  typed["eps"] = "not a number";
  EXPECT_FALSE(QuerySpec::FromJson(typed).ok());
  typed = json::Object{};
  typed["algo"] = "quantum";
  EXPECT_FALSE(QuerySpec::FromJson(typed).ok());
  typed = json::Object{};
  typed["g"] = "ten";
  EXPECT_FALSE(QuerySpec::FromJson(typed).ok());

  EXPECT_FALSE(QuerySpec::FromJson(json::Value("[]")).ok());

  // Integer fields take only integers in their C++ type's range: negative
  // unsigned values, fractions and out-of-range values are field errors,
  // never CHECK failures, exceptions or silent truncation.
  for (const char* line :
       {R"({"deadline_ms":-1})", R"({"mem_budget":-7})", R"({"g":2.5})",
        R"({"g":18446744073709551615})", R"({"g":4294967297})",
        R"({"g":-2147483649})", R"({"threads":1e3})",
        R"({"deadline_ms":1.5})", R"({"mem_budget":1e30})"}) {
    const auto doc = json::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    const auto parsed = QuerySpec::FromJson(*doc);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(parsed.status().message().find("request field '"),
              std::string::npos)
        << parsed.status().ToString();
  }
  // The extremes of each range still parse.
  const auto extremes = json::Parse(
      R"({"g":2147483647,"threads":-2147483648,)"
      R"("deadline_ms":18446744073709551615,"mem_budget":0})");
  ASSERT_TRUE(extremes.ok());
  const auto spec_at_extremes = QuerySpec::FromJson(*extremes);
  ASSERT_TRUE(spec_at_extremes.ok()) << spec_at_extremes.status().ToString();
  EXPECT_EQ(spec_at_extremes->window, 2147483647);
  EXPECT_EQ(spec_at_extremes->threads, -2147483647 - 1);
  EXPECT_EQ(spec_at_extremes->deadline_ms, 18446744073709551615ull);
  EXPECT_EQ(spec_at_extremes->mem_budget, 0u);
}

TEST(QuerySpecTest, RemovedKnobsAreUnknownFields) {
  // The leaf kernel, batch depth and child-pair order never change the
  // output, so they are not part of a query.
  for (const char* field : {"leaf_kernel", "leaf_batch", "sort_child_pairs"}) {
    json::Value doc = json::Object{};
    doc["eps"] = 0.25;
    doc[field] = "sweep";
    const auto spec = QuerySpec::FromJson(doc);
    ASSERT_FALSE(spec.ok()) << field;
    EXPECT_EQ(spec.status().message(),
              std::string("unknown request field '") + field + "'");
  }
}

}  // namespace
}  // namespace csj
