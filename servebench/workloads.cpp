#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "core/prio.h"
#include "dag/csr.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace servebench {

namespace pd = prio::dag;
namespace pw = prio::workloads;

namespace {

// Stream tags keep the measured sequence, the warm-up pass and each
// decision inside a sequence on independent random streams.
constexpr std::uint64_t kStreamMeasure = 0x6d656173ULL;
constexpr std::uint64_t kStreamWarmup = 0x7761726dULL;
constexpr std::uint64_t kWarmupSeed = 0x5eed0fa11ULL;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr double kProbScale = 1e6;  // edge probabilities ride Recipe::p

// One mid-size or small dag of generator family `family` (0 to 3: the
// four families the cold_text and zipf_hot workloads draw from), sized
// near `jobs`.
Recipe drawFamilyRecipe(prio::stats::Rng& rng, std::size_t jobs,
                        std::size_t family) {
  Recipe r;
  r.seed = rng.next();
  switch (family) {
    case 0: {
      r.family = Family::kAirsnWidth;
      const std::size_t handle = 5 + rng.below(std::max<std::size_t>(jobs / 8, 2));
      r.p[0] = std::max<std::size_t>(1, (jobs - std::min(jobs, handle + 2)) / 3);
      r.p[1] = handle;
      break;
    }
    case 1: {
      r.family = Family::kLayered;
      const std::size_t layers = 4 + rng.below(17);
      r.p[0] = layers;
      r.p[1] = std::max<std::size_t>(1, jobs / layers);
      r.p[2] = static_cast<std::size_t>(
          kProbScale * std::min(1.0, 2.0 / static_cast<double>(r.p[1])));
      break;
    }
    case 2:
      r.family = Family::kComposable;
      r.p[0] = jobs * 6 / 11;  // about 1.83 new jobs per composition step
      break;
    default:
      r.family = Family::kRandom;
      r.p[0] = jobs;
      r.p[2] = static_cast<std::size_t>(
          kProbScale * 1.5 / static_cast<double>(jobs));
      break;
  }
  return r;
}

// A paper dag with shape parameter j scaled by factors[j], or at the
// paper's full scale when `factors` is null.
Recipe paperRecipe(Family family, const double* factors) {
  int j = 0;
  auto scale = [&](std::size_t v) {
    if (factors == nullptr) return v;
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(
               std::lround(static_cast<double>(v) * factors[j++])));
  };
  Recipe r;
  r.family = family;
  switch (family) {
    case Family::kAirsn: {
      const pw::AirsnParams d;
      r.p[0] = scale(d.width);
      r.p[1] = scale(d.handle_length);
      break;
    }
    case Family::kInspiral: {
      const pw::InspiralParams d;
      r.p[0] = scale(d.segments);
      r.p[1] = scale(d.templates);
      break;
    }
    case Family::kMontage: {
      const pw::MontageParams d;
      r.p[0] = scale(d.rows);
      r.p[1] = scale(d.cols);
      r.p[2] = scale(d.extra_diagonal_overlaps);
      break;
    }
    case Family::kSdss: {
      const pw::SdssParams d;
      r.p[0] = scale(d.fields);
      r.p[1] = scale(d.long_chain);
      r.p[2] = scale(d.short_chain);
      r.p[3] = scale(d.output_files);
      break;
    }
    default:
      PRIO_CHECK_MSG(false, "not a paper family");
  }
  return r;
}

prio::dagman::DagmanFile toDagman(const pd::Digraph& g) {
  prio::dagman::DagmanFile file;
  for (pd::NodeId u = 0; u < g.numNodes(); ++u) {
    file.addJob(g.name(u), "job.submit");
  }
  for (pd::NodeId u = 0; u < g.numNodes(); ++u) {
    for (pd::NodeId v : g.children(u)) file.addDependency(g.name(u), g.name(v));
  }
  return file;
}

std::string writeDagman(const prio::dagman::DagmanFile& file) {
  std::ostringstream out;
  file.write(out);
  return std::move(out).str();
}

// Builds each recipe's dag once for its job count and structural
// fingerprint, in parallel. Payload bytes are rendered later, once the
// payload kind is known (renderBytes).
std::vector<std::pair<Payload, std::uint64_t>> fingerprintAll(
    const std::vector<Recipe>& recipes) {
  std::vector<std::pair<Payload, std::uint64_t>> out(recipes.size());
  parallelFor(recipes.size(), [&](std::size_t i) {
    const pd::Digraph g = build(recipes[i]);
    out[i].first.recipe = recipes[i];
    out[i].first.jobs = g.numNodes();
    out[i].second = pd::structuralFingerprint(g);
  });
  return out;
}

// `count` structurally new dags: the k-th is `draw(k, 0)`, or, when its
// fingerprint is already in `seen`, the first of draw(k, 1), draw(k, 2),
// ... that is new. The first candidates are built in parallel, and
// they and the retries are checked in index order, so the result is
// deterministic and prefix-stable.
template <typename Draw>
std::vector<Payload> drawDistinct(std::size_t count,
                                  std::unordered_set<std::uint64_t>& seen,
                                  Draw draw) {
  std::vector<Recipe> recipes;
  for (std::size_t k = 0; k < count; ++k) recipes.push_back(draw(k, 0));
  std::vector<Payload> out;
  std::size_t k = 0;
  for (auto& [payload, fingerprint] : fingerprintAll(recipes)) {
    for (std::uint32_t attempt = 1; !seen.insert(fingerprint).second;
         ++attempt) {
      PRIO_CHECK_MSG(attempt < 1000, "ran out of distinct "
                                         << familyName(payload.recipe.family)
                                         << " dags");
      payload.recipe = draw(k, attempt);
      const pd::Digraph g = build(payload.recipe);
      payload.jobs = g.numNodes();
      fingerprint = pd::structuralFingerprint(g);
    }
    out.push_back(std::move(payload));
    ++k;
  }
  return out;
}

// Where the k-th dag of a stream falls in [0, 1): 0.5 + k times the
// golden ratio, modulo 1. Any run of consecutive k covers the interval
// evenly, so sizes drawn from it average out over a few dozen dags.
double spreadOf(std::size_t k) {
  const double x = 0.5 + static_cast<double>(k) * 0.6180339887498949;
  return x - std::floor(x);
}

// Fills in the wire bytes of every payload, in parallel.
void renderBytes(Sequence& seq) {
  parallelFor(seq.payloads.size(), [&](std::size_t p) {
    Payload& payload = seq.payloads[p];
    payload.bytes = encodePayload(build(payload.recipe), payload.kind);
  });
}

void appendNew(Sequence& seq, Payload payload, PayloadKind kind) {
  payload.kind = kind;
  seq.requests.push_back(static_cast<std::uint32_t>(seq.payloads.size()));
  seq.sightings.push_back(Sighting::kNew);
  seq.payloads.push_back(std::move(payload));
}

// ---------------------------------------------------------------------
// cold_text: every request a structurally distinct mid-size dag (300 to
// 1,500 jobs, four generator families), sent as DAGMan text. The k-th
// dag's family and size follow from k alone (retries after eight
// repeated structures move to the next family), so every seed sends
// the same mix; the seed picks the structures.

Recipe coldTextDraw(std::uint64_t stream, std::size_t k, std::uint32_t attempt) {
  prio::stats::Rng rng(mix(mix(stream, k), attempt));
  const auto jobs = 300 + static_cast<std::size_t>(1200.0 * spreadOf(k));
  return drawFamilyRecipe(rng, jobs, (k + attempt / 8) % 4);
}

void makeColdText(Sequence& seq, std::uint64_t stream, std::size_t count,
                  std::unordered_set<std::uint64_t>& seen) {
  for (Payload& p : drawDistinct(count, seen, [&](std::size_t k, std::uint32_t a) {
         return coldTextDraw(stream, k, a);
       })) {
    appendNew(seq, std::move(p), PayloadKind::kDagmanText);
  }
}

// ---------------------------------------------------------------------
// zipf_hot: small dags (40 to 160 jobs); 90% of requests repeat an
// earlier payload with Zipf(1) popularity, every tenth is a first
// sighting. First sightings cycle new-text, renamed-BDAG, new-BDAG,
// renamed-text, so payloads are half text and half BDAG.

// The k-th small dag: family and size follow from k alone, as in
// cold_text. Families cycle every second k, so text and BDAG first
// sightings (alternate fresh dags) each see all four. An AIRSN shape of
// a given size has only a few handle lengths, so once they are all sent
// the retries move on to the next family.
Recipe smallDraw(std::uint64_t stream, std::size_t k, std::uint32_t attempt) {
  prio::stats::Rng rng(mix(mix(stream, k), attempt));
  const auto jobs = 40 + static_cast<std::size_t>(120.0 * spreadOf(k));
  return drawFamilyRecipe(rng, jobs, (k / 2 + attempt / 8) % 4);
}

// A Zipf(1) rank in [0, n): P(r) proportional to 1/(r+1). `harmonic[n]`
// is the n-th harmonic number.
std::size_t zipfRank(prio::stats::Rng& rng, const std::vector<double>& harmonic,
                     std::size_t n) {
  const double u = rng.uniform01() * harmonic[n];
  const auto first = harmonic.begin() + 1;
  return std::min<std::size_t>(
      n - 1, static_cast<std::size_t>(
                 std::upper_bound(first, first + static_cast<long>(n), u) - first));
}

// Popularity is Zipf(1) over every distinct payload sent so far, ranked
// by first sighting; a renamed copy takes its structure from an earlier
// payload drawn the same way. The ranks come from a stream that does not
// depend on the seed, and payload sizes follow from their index, so every
// seed sends the same traffic shape and only the structures differ.
void makeZipfHot(Sequence& seq, std::uint64_t seed, std::size_t count,
                 std::unordered_set<std::uint64_t>& seen) {
  const std::size_t firsts = (count + 9) / 10;
  const std::vector<Payload> fresh =
      drawDistinct((firsts + 1) / 2, seen, [&](std::size_t k, std::uint32_t a) {
        return smallDraw(mix(seed, kStreamMeasure), k, a);
      });
  std::vector<double> harmonic(firsts + 1, 0.0);
  for (std::size_t r = 1; r <= firsts; ++r) {
    harmonic[r] = harmonic[r - 1] + 1.0 / static_cast<double>(r);
  }
  prio::stats::Rng rng(mix(kStreamMeasure, 0x7a697066ULL));
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t sent = seq.payloads.size();
    if (i % 10 != 0) {
      seq.requests.push_back(
          static_cast<std::uint32_t>(zipfRank(rng, harmonic, sent)));
      seq.sightings.push_back(Sighting::kRepeat);
      continue;
    }
    const std::size_t k = i / 10;
    if (k % 2 == 0) {
      appendNew(seq, fresh[k / 2],
                k % 4 == 0 ? PayloadKind::kDagmanText : PayloadKind::kBinaryCsr);
      continue;
    }
    Payload copy = seq.payloads[zipfRank(rng, harmonic, sent)];
    copy.recipe.rename = static_cast<std::uint32_t>(k);
    copy.kind = k % 4 == 1 ? PayloadKind::kBinaryCsr : PayloadKind::kDagmanText;
    seq.requests.push_back(static_cast<std::uint32_t>(sent));
    seq.sightings.push_back(Sighting::kRenamed);
    seq.payloads.push_back(std::move(copy));
  }
}

// ---------------------------------------------------------------------
// paper_full: the paper's four dags at full scale, jittered, as BDAG.
// Each block of 40 requests holds a fixed class mix in seeded order.
// The classes are far apart in cost (on one core of the reference host
// AIRSN takes about 2 ms, Montage 35 ms, Inspiral 80 ms, SDSS 760 ms),
// so latency ranks fall into class bands: AIRSN 0-35%, Montage 35-65%,
// Inspiral 65-97.5%, SDSS the rest. p50 then sits in the middle of the
// Montage band and p90 inside the Inspiral band, neither on a boundary.
constexpr std::array<std::pair<Family, std::size_t>, 4> kPaperBlock = {{
    {Family::kAirsn, 14},
    {Family::kMontage, 12},
    {Family::kInspiral, 13},
    {Family::kSdss, 1},
}};

using Shape = std::tuple<Family, std::size_t, std::size_t, std::size_t,
                         std::size_t>;

Shape shapeOf(const Recipe& r) {
  return {r.family, r.p[0], r.p[1], r.p[2], r.p[3]};
}

// The jitter of one paper class: the k-th instance scales parameter j
// by 0.8 + 0.4 * frac(offset[j] + k * kJitterStep[j]). The seed picks the
// offsets; the irrational steps spread any run of instances evenly over
// [0.8, 1.2], so the total work of a sequence hardly depends on the seed
// while every instance gets its own shape.
constexpr double kJitterStep[4] = {0.6180339887498949, 0.4142135623730950,
                                   0.7320508075688772, 0.2360679774997897};

struct ClassJitter {
  double offset[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t next = 0;  ///< instances drawn so far

  std::array<double, 4> factors() {
    std::array<double, 4> f{};
    for (int j = 0; j < 4; ++j) {
      const double x = offset[j] + static_cast<double>(next) * kJitterStep[j];
      f[j] = 0.8 + 0.4 * (x - std::floor(x));
    }
    ++next;
    return f;
  }
};

void makePaperFull(Sequence& seq, std::uint64_t seed, std::size_t count,
                   const Sequence& warm,
                   std::unordered_set<std::uint64_t>& seen) {
  // Distinct parameters almost always give distinct structures; the
  // fingerprint check below catches the rest.
  std::set<Shape> shapes;
  for (const Payload& p : warm.payloads) shapes.insert(shapeOf(p.recipe));
  prio::stats::Rng rng(mix(seed, kStreamMeasure));
  std::map<Family, ClassJitter> jitter;
  for (const auto& entry : kPaperBlock) {
    for (double& o : jitter[entry.first].offset) o = rng.uniform01();
  }
  auto draw = [&](Family family) {
    for (int tries = 1;; ++tries) {
      PRIO_CHECK_MSG(tries < 1000, "paper_full ran out of distinct "
                                       << familyName(family) << " shapes");
      const Recipe r = paperRecipe(family, jitter[family].factors().data());
      if (shapes.insert(shapeOf(r)).second) return r;
    }
  };
  std::vector<Recipe> recipes;
  while (recipes.size() < count) {
    std::vector<Family> order;
    for (const auto& [family, n] : kPaperBlock) {
      order.insert(order.end(), n, family);
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (Family family : order) {
      if (recipes.size() == count) break;
      recipes.push_back(draw(family));
    }
  }
  for (auto& [payload, fingerprint] : fingerprintAll(recipes)) {
    while (!seen.insert(fingerprint).second) {
      payload.recipe = draw(payload.recipe.family);
      const pd::Digraph g = build(payload.recipe);
      payload.jobs = g.numNodes();
      fingerprint = pd::structuralFingerprint(g);
    }
    appendNew(seq, std::move(payload), PayloadKind::kBinaryCsr);
  }
}

Sequence emptySequence(const std::string& workload) {
  PRIO_CHECK_MSG(knownWorkload(workload), "unknown workload " << workload);
  Sequence seq;
  seq.connections = connectionsFor(workload);
  return seq;
}

// The warm-up pass and, through `seen`, its structural fingerprints.
Sequence warmup(const std::string& workload,
                std::unordered_set<std::uint64_t>& seen) {
  Sequence seq = emptySequence(workload);
  const std::uint64_t stream = mix(kWarmupSeed, kStreamWarmup);
  if (workload == "cold_text") {
    makeColdText(seq, stream, 48, seen);
  } else if (workload == "zipf_hot") {
    std::size_t j = 0;
    for (Payload& p : drawDistinct(400, seen, [&](std::size_t k, std::uint32_t a) {
           return smallDraw(stream, k, a);
         })) {
      appendNew(seq, std::move(p),
                j++ % 2 == 0 ? PayloadKind::kDagmanText
                             : PayloadKind::kBinaryCsr);
    }
  } else {
    std::vector<Recipe> recipes;
    for (const auto& [family, n] : kPaperBlock) {
      recipes.push_back(paperRecipe(family, nullptr));
    }
    for (auto& [payload, fingerprint] : fingerprintAll(recipes)) {
      seen.insert(fingerprint);
      appendNew(seq, std::move(payload), PayloadKind::kBinaryCsr);
    }
  }
  renderBytes(seq);
  return seq;
}

}  // namespace

const char* familyName(Family f) {
  switch (f) {
    case Family::kAirsnWidth: return "airsn_width";
    case Family::kLayered: return "layered_random";
    case Family::kComposable: return "random_composable";
    case Family::kRandom: return "random_dag";
    case Family::kAirsn: return "airsn";
    case Family::kInspiral: return "inspiral";
    case Family::kMontage: return "montage";
    case Family::kSdss: return "sdss";
  }
  return "?";
}

pd::Digraph build(const Recipe& r) {
  prio::stats::Rng rng(r.seed);
  pd::Digraph g;
  switch (r.family) {
    case Family::kAirsnWidth:
    case Family::kAirsn:
      g = pw::makeAirsn({r.p[0], r.p[1]});
      break;
    case Family::kLayered:
      g = pw::layeredRandom(r.p[0], r.p[1],
                            static_cast<double>(r.p[2]) / kProbScale, rng);
      break;
    case Family::kComposable:
      g = pw::randomComposable(r.p[0], rng);
      break;
    case Family::kRandom:
      g = pw::randomDag(r.p[0], static_cast<double>(r.p[2]) / kProbScale, rng);
      break;
    case Family::kInspiral:
      g = pw::makeInspiral({r.p[0], r.p[1]});
      break;
    case Family::kMontage:
      g = pw::makeMontage({r.p[0], r.p[1], r.p[2]});
      break;
    case Family::kSdss:
      g = pw::makeSdss({r.p[0], r.p[1], r.p[2], r.p[3]});
      break;
  }
  if (r.rename == 0) return g;
  // Same ids and adjacency order, fresh job names: a different payload
  // with the same structural fingerprint and layout hash.
  pd::Digraph renamed;
  renamed.reserveNodes(g.numNodes());
  std::string prefix = std::to_string(r.rename);
  prefix.insert(0, 1, 'r');
  prefix += '_';
  for (pd::NodeId u = 0; u < g.numNodes(); ++u) {
    renamed.addNode(prefix + g.name(u));
  }
  for (pd::NodeId u = 0; u < g.numNodes(); ++u) {
    for (pd::NodeId v : g.children(u)) renamed.addEdge(u, v);
  }
  return renamed;
}

std::string encodePayload(const pd::Digraph& g, PayloadKind kind) {
  if (kind == PayloadKind::kBinaryCsr) return pd::encodeBinaryDag(g);
  return writeDagman(toDagman(g));
}

std::string expectedReply(const Recipe& recipe, PayloadKind kind) {
  const pd::Digraph g = build(recipe);
  if (kind == PayloadKind::kBinaryCsr) {
    const prio::core::PrioResult result =
        prio::core::prioritize(prio::core::PrioRequest(g));
    return pd::encodeBinaryPriorities(result.priority);
  }
  // The server prioritizes the dag it parsed from the text, so the
  // reference does the same: node ids and arc order come from the file.
  prio::dagman::DagmanFile file = toDagman(g);
  const pd::Digraph parsed = file.toDigraph();
  const prio::core::PrioResult result =
      prio::core::prioritize(prio::core::PrioRequest(parsed));
  prio::dagman::instrumentDagmanFile(file, result.priority);
  return writeDagman(file);
}

std::uint64_t Sequence::hash() const {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  auto eat = [](std::uint64_t h, unsigned char c) {
    return (h ^ c) * 0x100000001b3ULL;
  };
  std::vector<std::uint64_t> payload_hash(payloads.size(), kBasis);
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    for (unsigned char c : payloads[p].bytes) {
      payload_hash[p] = eat(payload_hash[p], c);
    }
  }
  std::uint64_t h = kBasis;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    h = eat(h, static_cast<unsigned char>(at(i).kind));
    for (int b = 0; b < 8; ++b) {
      h = eat(h, static_cast<unsigned char>(payload_hash[requests[i]] >> (8 * b)));
    }
  }
  return h;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"cold_text", "zipf_hot",
                                                 "paper_full"};
  return names;
}

bool knownWorkload(const std::string& name) {
  const auto& names = workloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::size_t connectionsFor(const std::string& workload) {
  return workload == "zipf_hot" ? 4 : 2;
}

Sequence makeSequence(const std::string& workload, std::uint64_t seed,
                      std::size_t count) {
  std::unordered_set<std::uint64_t> seen;
  const Sequence warm = warmup(workload, seen);
  Sequence seq = emptySequence(workload);
  if (workload == "cold_text") {
    makeColdText(seq, mix(seed, kStreamMeasure), count, seen);
  } else if (workload == "zipf_hot") {
    makeZipfHot(seq, seed, count, seen);
  } else {
    makePaperFull(seq, seed, count, warm, seen);
  }
  renderBytes(seq);
  return seq;
}

Sequence makeWarmup(const std::string& workload) {
  std::unordered_set<std::uint64_t> seen;
  return warmup(workload, seen);
}

}  // namespace servebench
