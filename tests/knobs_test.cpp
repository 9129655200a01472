// The ONEBIT_* knob table (src/analytics/knobs.hpp): one table-driven case
// per kind at the edges of its range, the knobs that are gone, the [knobs]
// line, and the process-wide accessors.
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/knobs.hpp"
#include "fi/experiment.hpp"
#include "fi/fleet.hpp"
#include "fi/supervisor.hpp"
#include "progs/registry.hpp"

namespace onebit::analytics {
namespace {

constexpr const char* kTwoToThe64 = "18446744073709551616";

const KnobInfo& info(Knob k) {
  return knobTable()[static_cast<std::size_t>(k)];
}

/// Parse one `NAME=value` entry; the error line when rejected, else "".
std::string rejection(const std::string& entry) {
  std::string error;
  const std::optional<Knobs> parsed = Knobs::parse({entry}, error);
  EXPECT_EQ(parsed.has_value(), error.empty()) << entry;
  return error;
}

void expectAccepted(std::string_view name, const std::string& value) {
  EXPECT_EQ(rejection(std::string(name) + "=" + value), "")
      << name << "=" << value;
}

void expectRejected(std::string_view name, const std::string& value) {
  const std::string error = rejection(std::string(name) + "=" + value);
  EXPECT_EQ(error.rfind(std::string(name) + "=", 0), 0u)
      << name << "=" << value << " -> '" << error << "'";
}

/// The values every numeric knob rejects.
const std::vector<std::string> kNotCounts = {
    "-1", "5x", " 5", "+5", "5 ", "0x10", "1e3", "5.0", "-", kTwoToThe64};

TEST(KnobTable, ListsNineteenDocumentedKnobs) {
  std::set<std::string_view> names;
  for (const KnobInfo& k : knobTable()) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.name.rfind("ONEBIT_", 0), 0u);
    EXPECT_FALSE(k.doc.empty());
    names.insert(k.name);
    if (k.kind == KnobKind::Count || k.kind == KnobKind::Flag) {
      EXPECT_LE(k.min, k.max);
      // The fallback is in range, except for ONEBIT_EXPERIMENTS, whose
      // default each artifact picks.
      if (k.unsetText.empty()) {
        EXPECT_GE(k.fallback, k.min);
        EXPECT_LE(k.fallback, k.max);
      }
    } else {
      EXPECT_FALSE(k.unsetText.empty());
    }
  }
  EXPECT_EQ(names.size(), 19u);
}

TEST(KnobTable, DefaultsAreTheLibrarysOwn) {
  const Knobs k;
  EXPECT_EQ(k.count(Knob::SnapshotInterval), fi::SnapshotPolicy{}.interval);
  EXPECT_EQ(k.count(Knob::FleetLeaseMs), fi::FleetConfig{}.leaseMs);
  EXPECT_EQ(k.count(Knob::PoisonRetries),
            fi::FleetSupervisorConfig{}.poisonRetries);
  EXPECT_EQ(k.count(Knob::Seed), 2017u);
  EXPECT_EQ(k.count(Knob::FlipWidth), 32u);
  for (const KnobInfo& i : knobTable()) EXPECT_FALSE(k.set(i.knob)) << i.name;
}

TEST(KnobParse, CountsAcceptTheirBoundsAndNothingElse) {
  for (const KnobInfo& k : knobTable()) {
    if (k.kind != KnobKind::Count) continue;
    SCOPED_TRACE(k.name);
    for (const std::uint64_t v : {k.min, k.max}) {
      std::string error;
      const std::optional<Knobs> parsed = Knobs::parse(
          {std::string(k.name) + "=" + std::to_string(v)}, error);
      ASSERT_TRUE(parsed.has_value()) << error;
      EXPECT_TRUE(parsed->set(k.knob));
      EXPECT_EQ(parsed->count(k.knob), v);
    }
    std::string error;
    const std::optional<Knobs> unset =
        Knobs::parse({std::string(k.name) + "="}, error);
    ASSERT_TRUE(unset.has_value()) << error;
    EXPECT_FALSE(unset->set(k.knob));
    EXPECT_EQ(unset->count(k.knob), k.fallback);
    for (const std::string& bad : kNotCounts) expectRejected(k.name, bad);
    if (k.min > 0) expectRejected(k.name, std::to_string(k.min - 1));
    if (k.max < UINT64_MAX) expectRejected(k.name, std::to_string(k.max + 1));
  }
  // The ranges the paper knobs care about, spelled out.
  expectRejected("ONEBIT_EXPERIMENTS", "0");
  expectRejected("ONEBIT_FLIP_WIDTH", "65");
  expectAccepted("ONEBIT_SEED", "18446744073709551615");
}

TEST(KnobParse, FlagsAreZeroOrOne) {
  for (const KnobInfo& k : knobTable()) {
    if (k.kind != KnobKind::Flag) continue;
    SCOPED_TRACE(k.name);
    expectAccepted(k.name, "0");
    expectAccepted(k.name, "1");
    expectAccepted(k.name, "");
    for (const std::string& bad : kNotCounts) expectRejected(k.name, bad);
    for (const char* bad : {"2", "yes", "true", "on"}) {
      expectRejected(k.name, bad);
    }
  }
}

TEST(KnobParse, ProgramListsNameRegistryPrograms) {
  const std::string name(info(Knob::Programs).name);
  std::string all;
  for (const progs::ProgramInfo& p : progs::allPrograms()) {
    all += (all.empty() ? "" : ",") + p.name;
  }
  for (const std::string& ok :
       {std::string("qsort"), std::string("crc32,qsort"), all, std::string()}) {
    expectAccepted(name, ok);
  }
  for (const char* bad : {"qsrot", "QSORT", " qsort", "qsort,", ",qsort",
                          "qsort,,crc32", ",", "qsort;crc32", "-1", "5x"}) {
    expectRejected(name, bad);
  }
  std::string error;
  const std::optional<Knobs> parsed =
      Knobs::parse({name + "=crc32,qsort"}, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->programs(), (std::vector<std::string>{"crc32", "qsort"}));
  EXPECT_NE(rejection(name + "=qsort,qsrot").find("'qsrot'"),
            std::string::npos);
}

TEST(KnobParse, SpecListsParseAsFaultModels) {
  const std::string name(info(Knob::Specs).name);
  for (const char* ok : {"read/single", "read/single;write/m=3,w=1",
                         "mem/burst=4;mem/single", ""}) {
    expectAccepted(name, ok);
  }
  for (const char* bad : {"read/sngle", "read/single;", ";read/single",
                          "read/single;;write/single", ";",
                          "read/single; write/single", "read/single,",
                          "-1", "5x"}) {
    expectRejected(name, bad);
  }
  std::string error;
  const std::optional<Knobs> parsed =
      Knobs::parse({name + "=write/m=3,w=1"}, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->specs().size(), 1u);
  EXPECT_EQ(parsed->specs()[0].label(), "write/m=3,w=1");
}

TEST(KnobParse, PathsTakeAnyText) {
  const std::string name(info(Knob::Store).name);
  for (const char* ok : {"/tmp/s.jsonl", "relative dir/s.jsonl", "-1", ""}) {
    expectAccepted(name, ok);
  }
  std::string error;
  const std::optional<Knobs> parsed = Knobs::parse({name + "=a=b"}, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->text(Knob::Store), "a=b");
}

TEST(KnobParse, PoisonSpecsAreNameAndOptionalShard) {
  const std::string name(info(Knob::FleetPoison).name);
  for (const char* ok :
       {"qsort", "qsort:0", "qsort:1", "qsort:18446744073709551614", ""}) {
    expectAccepted(name, ok);
  }
  // 2^64 - 1 is the "every shard" sentinel, not a shard.
  for (const std::string& bad :
       {std::string(":1"), std::string("qsort:"), std::string("qsort:-1"),
        std::string("qsort:5x"), std::string("qsort: 5"),
        std::string("qsort:+5"), std::string("qsort:18446744073709551615"),
        "qsort:" + std::string(kTwoToThe64)}) {
    expectRejected(name, bad);
  }
}

TEST(KnobParse, UnknownAndDeletedNamesAreRejected) {
  for (const char* entry :
       {"ONEBIT_EXPERIMENT=5", "ONEBIT_EXPERIMENT=", "ONEBIT_=1",
        "ONEBIT_CHAOS_MS=100", "ONEBIT_experiments=5",
        // The seven knobs that are gone.
        "ONEBIT_SNAPSHOT_BUDGET=0", "ONEBIT_LEASE_QUANTILE=0.9",
        "ONEBIT_FLEET_HEARTBEAT_MS=100", "ONEBIT_T4_MBF_READ=2",
        "ONEBIT_T4_WIN_READ=100", "ONEBIT_T4_MBF_WRITE=3",
        "ONEBIT_T4_WIN_WRITE=1"}) {
    const std::string entryText = entry;
    const std::string error = rejection(entryText);
    const std::string name = entryText.substr(0, entryText.find('='));
    EXPECT_EQ(error.rfind(name + " is not a knob", 0), 0u)
        << entry << " -> '" << error << "'";
  }
  // Everything without the prefix is somebody else's.
  std::string error;
  EXPECT_TRUE(Knobs::parse({"PATH=/bin", "TMPDIR=", "XONEBIT_SEED=x",
                            "onebit_seed=x", "ONEBIT_SEED"},
                           error)
                  .has_value())
      << error;
}

TEST(KnobParse, DescribeListsEveryKnobAndWhetherItWasSet) {
  std::string error;
  const std::optional<Knobs> parsed = Knobs::parse(
      {"ONEBIT_EXPERIMENTS=064", "ONEBIT_PROGRAMS=qsort,crc32"}, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const std::string line = parsed->describe();
  EXPECT_EQ(line.rfind("[knobs] ONEBIT_EXPERIMENTS=64(set) ", 0), 0u) << line;
  for (const char* item :
       {" ONEBIT_SEED=2017(default)", " ONEBIT_PROGRAMS=qsort,crc32(set)",
        " ONEBIT_SPECS=all(default)", " ONEBIT_STORE=none(default)",
        " ONEBIT_SNAPSHOT_INTERVAL=1024(default)"}) {
    EXPECT_NE(line.find(item), std::string::npos) << item << " in " << line;
  }
  std::size_t at = 0;
  for (const KnobInfo& k : knobTable()) {
    at = line.find(" " + std::string(k.name) + "=", at);
    ASSERT_NE(at, std::string::npos) << k.name << " in table order";
  }
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(KnobProcess, AccessorsReadTheReloadedEnvironment) {
  ::setenv("ONEBIT_SEED", "18446744073709551615", 1);
  ::setenv("ONEBIT_EXPERIMENTS", "7", 1);
  ::setenv("ONEBIT_SPECS", "write/m=3,w=1", 1);
  ASSERT_EQ(reloadKnobs(), std::nullopt);
  EXPECT_EQ(masterSeed(), UINT64_MAX);
  EXPECT_EQ(experimentsPerCampaign(400), 7u);
  EXPECT_TRUE(specSelected(fi::FaultModel::multiBitTemporal(
      fi::FaultDomain::RegisterWrite, 3, fi::WinSize::fixed(1))));
  EXPECT_FALSE(specSelected(
      fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite)));

  // A bad environment reports its error and leaves knobs() as it was.
  ::setenv("ONEBIT_SEED", "-1", 1);
  const std::optional<std::string> error = reloadKnobs();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->rfind("ONEBIT_SEED=-1", 0), 0u) << *error;
  EXPECT_EQ(masterSeed(), UINT64_MAX);

  for (const char* name :
       {"ONEBIT_SEED", "ONEBIT_EXPERIMENTS", "ONEBIT_SPECS"}) {
    ::unsetenv(name);
  }
  ASSERT_EQ(reloadKnobs(), std::nullopt);
  EXPECT_EQ(masterSeed(), 2017u);
  EXPECT_EQ(experimentsPerCampaign(400), 400u);
  EXPECT_TRUE(specSelected(
      fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite)));
}

}  // namespace
}  // namespace onebit::analytics
