//===- FlightRecorderTest.cpp - Request-digest ring tests -----------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The flight recorder is the "what happened to the last N requests" ring:
// it must keep the newest window under overwrite (counting, not hiding,
// what it dropped), attribute shed causes, and dump a parseable
// aqua.flight.v1 document.
//
//===----------------------------------------------------------------------===//

#include "aqua/obs/FlightRecorder.h"
#include "aqua/support/Json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace aqua;
using namespace aqua::obs;

namespace {

RequestDigest digest(std::uint64_t Trace, std::string Name,
                     RequestOutcome Outcome = RequestOutcome::Miss,
                     ShedCause Cause = ShedCause::None) {
  RequestDigest D;
  D.TraceId = Trace;
  D.Name = std::move(Name);
  D.Outcome = Outcome;
  D.Cause = Cause;
  D.Ok = Outcome != RequestOutcome::Shed;
  return D;
}

} // namespace

TEST(FlightRecorder, KeepsEverythingBelowCapacity) {
  FlightRecorder R(16);
  for (int I = 0; I < 10; ++I)
    R.record(digest(I + 1, "req" + std::to_string(I)));
  EXPECT_EQ(R.size(), 10u);
  EXPECT_EQ(R.recordedCount(), 10u);
  EXPECT_EQ(R.droppedCount(), 0u);
  std::vector<RequestDigest> D = R.snapshot();
  ASSERT_EQ(D.size(), 10u);
  EXPECT_EQ(D.front().Name, "req0");
  EXPECT_EQ(D.back().Name, "req9");
}

TEST(FlightRecorder, WraparoundKeepsNewestOldestFirst) {
  // Capacity clamps at 8 minimum; 20 records overwrite the first 12.
  FlightRecorder R(8);
  for (int I = 0; I < 20; ++I)
    R.record(digest(I + 1, "req" + std::to_string(I)));
  EXPECT_EQ(R.size(), 8u);
  EXPECT_EQ(R.recordedCount(), 20u);
  EXPECT_EQ(R.droppedCount(), 12u);
  std::vector<RequestDigest> D = R.snapshot();
  ASSERT_EQ(D.size(), 8u);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(D[I].Name, "req" + std::to_string(12 + I));
}

TEST(FlightRecorder, ShedCauseAttribution) {
  FlightRecorder R(16);
  R.record(digest(1, "ok", RequestOutcome::Hit));
  R.record(digest(2, "bounced", RequestOutcome::Shed, ShedCause::QueueFull));
  R.record(
      digest(3, "late", RequestOutcome::Shed, ShedCause::DeadlineExpired));
  std::vector<RequestDigest> D = R.snapshot();
  ASSERT_EQ(D.size(), 3u);
  EXPECT_EQ(D[0].Cause, ShedCause::None);
  EXPECT_TRUE(D[0].Ok);
  EXPECT_EQ(D[1].Cause, ShedCause::QueueFull);
  EXPECT_FALSE(D[1].Ok);
  EXPECT_EQ(D[2].Cause, ShedCause::DeadlineExpired);

  EXPECT_STREQ(shedCauseName(ShedCause::QueueFull), "queue_full");
  EXPECT_STREQ(shedCauseName(ShedCause::DeadlineExpired), "deadline");
  EXPECT_STREQ(requestOutcomeName(RequestOutcome::Shed), "shed");
}

TEST(FlightRecorder, JsonParsesAndCarriesDigests) {
  FlightRecorder R(8);
  for (int I = 0; I < 11; ++I)
    R.record(digest(0x1000 + I, "req" + std::to_string(I),
                    I % 2 ? RequestOutcome::Hit : RequestOutcome::Miss));
  R.record(digest(0xbad, "shedded", RequestOutcome::Shed,
                  ShedCause::QueueFull));

  auto Doc = json::parse(R.json());
  ASSERT_TRUE(Doc.ok()) << Doc.message();
  EXPECT_EQ(Doc->strOr("schema", ""), "aqua.flight.v1");
  EXPECT_EQ(Doc->numberOr("recorded", 0), 12.0);
  EXPECT_EQ(Doc->numberOr("dropped", 0), 4.0);
  const json::Value *Digests = Doc->find("digests");
  ASSERT_NE(Digests, nullptr);
  ASSERT_EQ(Digests->array().size(), 8u);
  const json::Value &Last = Digests->array().back();
  EXPECT_EQ(Last.strOr("name", ""), "shedded");
  EXPECT_EQ(Last.strOr("outcome", ""), "shed");
  EXPECT_EQ(Last.strOr("cause", ""), "queue_full");
  EXPECT_EQ(Last.strOr("trace", ""), "0xbad");
  EXPECT_EQ(Last.strOr("frontend", ""), "none");
}

TEST(FlightRecorder, DigestsCarryTheFrontEndPath) {
  // Whether a request paid for parse/lower/canonicalize is part of its
  // post-mortem record.
  FlightRecorder R(8);
  const FrontEndPath Paths[] = {FrontEndPath::Memo, FrontEndPath::Lowered,
                                FrontEndPath::Graph};
  for (FrontEndPath P : Paths) {
    RequestDigest D = digest(1, "req", RequestOutcome::Hit);
    D.FrontEnd = P;
    R.record(std::move(D));
  }
  auto Doc = json::parse(R.json());
  ASSERT_TRUE(Doc.ok()) << Doc.message();
  const auto &Digests = Doc->find("digests")->array();
  ASSERT_EQ(Digests.size(), 3u);
  EXPECT_EQ(Digests[0].strOr("frontend", ""), "memo");
  EXPECT_EQ(Digests[1].strOr("frontend", ""), "lowered");
  EXPECT_EQ(Digests[2].strOr("frontend", ""), "graph");
  EXPECT_STREQ(frontEndPathName(FrontEndPath::None), "none");
}

TEST(FlightRecorder, ClearResetsCounts) {
  FlightRecorder R(8);
  for (int I = 0; I < 20; ++I)
    R.record(digest(I + 1, "r"));
  R.clear();
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(R.recordedCount(), 0u);
  EXPECT_EQ(R.droppedCount(), 0u);
  auto Doc = json::parse(R.json());
  ASSERT_TRUE(Doc.ok());
  EXPECT_TRUE(Doc->find("digests")->array().empty());
}
