// Self-checks of the benchmark's workloads: the sequences are the fixed,
// seeded traffic the benchmark claims they are.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "dag/fingerprint.h"
#include "workloads.h"

namespace servebench {
namespace {

// Small prefixes: the properties below hold for every prefix length.
std::size_t testLength(const std::string& workload) {
  if (workload == "cold_text") return 60;
  if (workload == "zipf_hot") return 2000;
  return 24;
}

TEST(Sequence, SameSeedSameHashOtherSeedOtherHash) {
  for (const std::string& w : workloadNames()) {
    SCOPED_TRACE(w);
    const std::size_t n = testLength(w) / 2;
    const std::uint64_t a = makeSequence(w, 11, n).hash();
    EXPECT_EQ(a, makeSequence(w, 11, n).hash());
    EXPECT_NE(a, makeSequence(w, 12, n).hash());
  }
}

TEST(Sequence, ShorterSequenceIsAPrefix) {
  for (const std::string& w : workloadNames()) {
    SCOPED_TRACE(w);
    const Sequence full = makeSequence(w, 5, testLength(w));
    const Sequence half = makeSequence(w, 5, testLength(w) / 2);
    ASSERT_EQ(half.size(), testLength(w) / 2);
    for (std::size_t i = 0; i < half.size(); ++i) {
      ASSERT_EQ(half.at(i).bytes, full.at(i).bytes) << "request " << i;
      ASSERT_EQ(half.sightings[i], full.sightings[i]) << "request " << i;
    }
  }
}

TEST(Sequence, ColdAndPaperRequestsAreStructurallyDistinct) {
  for (const std::string w : {"cold_text", "paper_full"}) {
    SCOPED_TRACE(w);
    std::unordered_set<std::uint64_t> seen;
    for (const Payload& p : makeWarmup(w).payloads) {
      EXPECT_TRUE(seen.insert(prio::dag::structuralFingerprint(build(p.recipe))).second);
    }
    const Sequence seq = makeSequence(w, 3, testLength(w));
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq.sightings[i], Sighting::kNew);
      EXPECT_TRUE(
          seen.insert(prio::dag::structuralFingerprint(build(seq.at(i).recipe)))
              .second)
          << "request " << i << " repeats a structure";
    }
  }
}

TEST(Sequence, ColdTextIsMidSizeText) {
  const Sequence seq = makeSequence("cold_text", 9, testLength("cold_text"));
  std::set<Family> families;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq.at(i).kind, PayloadKind::kDagmanText);
    // Targets are 300 to 1,500 jobs; randomComposable lands within about
    // 10% of its target, the other families at or just below it.
    EXPECT_GE(seq.at(i).jobs, 250u);
    EXPECT_LE(seq.at(i).jobs, 1650u);
    families.insert(seq.at(i).recipe.family);
  }
  EXPECT_EQ(families.size(), 4u);
}

TEST(Sequence, ZipfHotFirstSightingsAreExactlyTenPercent) {
  const std::size_t n = testLength("zipf_hot");
  const Sequence seq = makeSequence("zipf_hot", 21, n);
  std::size_t news = 0, renamed = 0, text = 0;
  std::set<std::uint32_t> sent;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const bool first = sent.insert(seq.requests[i]).second;
    EXPECT_EQ(first, seq.sightings[i] != Sighting::kRepeat) << "request " << i;
    news += seq.sightings[i] == Sighting::kNew;
    renamed += seq.sightings[i] == Sighting::kRenamed;
  }
  for (const Payload& p : seq.payloads) text += p.kind == PayloadKind::kDagmanText;
  EXPECT_EQ(news + renamed, n / 10);
  EXPECT_EQ(news, n / 20);
  EXPECT_EQ(renamed, n / 20);
  EXPECT_EQ(2 * text, seq.payloads.size());
}

TEST(Sequence, ZipfHotRenamedCopiesShareAStructureNotTheBytes) {
  const Sequence seq = makeSequence("zipf_hot", 4, 400);
  std::unordered_set<std::uint64_t> structures;
  std::unordered_set<std::string> bytes;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq.sightings[i] == Sighting::kRepeat) continue;
    const prio::dag::Digraph g = build(seq.at(i).recipe);
    const std::uint64_t key =
        prio::dag::structuralFingerprint(g) ^ prio::dag::layoutHash(g);
    EXPECT_TRUE(bytes.insert(seq.at(i).bytes).second) << "request " << i;
    if (seq.sightings[i] == Sighting::kRenamed) {
      EXPECT_TRUE(structures.count(key)) << "request " << i;
    } else {
      EXPECT_TRUE(structures.insert(key).second) << "request " << i;
    }
  }
}

TEST(Sequence, ZipfHotRepeatsFavourEarlyPayloads) {
  const Sequence seq = makeSequence("zipf_hot", 8, testLength("zipf_hot"));
  std::size_t first = 0, repeats = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq.sightings[i] != Sighting::kRepeat) continue;
    ++repeats;
    first += seq.requests[i] == 0;
  }
  // Under Zipf(1) the most popular payload draws 1/H(n) of the repeats
  // while n payloads have been sent; n stays at most 200 here, and
  // 1/H(200) is about 0.17.
  EXPECT_GT(first * 8, repeats);
}

}  // namespace
}  // namespace servebench
