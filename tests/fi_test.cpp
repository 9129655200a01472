// Unit tests for src/fi: fault specs, plans, the injector hook, grids.
#include <bit>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "fi/grid.hpp"
#include "fi/injector_hook.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

// --- FaultModel / WinSize --------------------------------------------------------

TEST(FaultModel, PaperParameterGridMatchesTableOne) {
  EXPECT_EQ(FaultModel::paperMaxMbf().size(), 10u);
  EXPECT_EQ(FaultModel::paperMaxMbf().front(), 2u);
  EXPECT_EQ(FaultModel::paperMaxMbf().back(), 30u);
  EXPECT_EQ(FaultModel::paperWinSizes().size(), 9u);
}

TEST(FaultModel, Labels) {
  EXPECT_EQ(FaultModel::singleBit(FaultDomain::RegisterRead).label(), "read/single");
  EXPECT_EQ(
      FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3, WinSize::random(2, 10)).label(),
      "write/m=3,w=RND(2-10)");
  EXPECT_EQ(WinSize::fixed(100).label(), "100");
  EXPECT_EQ(FaultModel::singleBit(FaultDomain::MemoryData).label(),
            "mem/single");
  EXPECT_EQ(FaultModel::burstAdjacent(FaultDomain::MemoryData, 4).label(),
            "mem/burst=4");
  EXPECT_EQ(FaultModel::singleBit(FaultDomain::RandomValue).label(),
            "rand/single");
  EXPECT_EQ(FaultModel::multiBitTemporal(FaultDomain::MemoryData, 2,
                                         WinSize::fixed(0)).label(),
            "mem/m=2,w=0");
}

TEST(FaultModel, DomainNames) {
  EXPECT_EQ(domainName(FaultDomain::RegisterRead), "inject-on-read");
  EXPECT_EQ(domainName(FaultDomain::RegisterWrite), "inject-on-write");
  EXPECT_EQ(domainName(FaultDomain::MemoryData), "memory-data");
  EXPECT_EQ(domainName(FaultDomain::RandomValue), "random-value");
}

TEST(FaultModel, ParseRoundTripsEveryTableOneSpelling) {
  // The full 182-label paper grid (every Table I spelling for both register
  // domains) plus the extension cells must round-trip label -> parse ->
  // label exactly.
  std::vector<FaultModel> models = paperCampaigns();
  for (const FaultModel& m : memoryScenarioModels()) models.push_back(m);
  models.push_back(FaultModel::singleBit(FaultDomain::RandomValue));
  models.push_back(FaultModel::burstAdjacent(FaultDomain::RegisterWrite, 3));
  for (const FaultModel& model : models) {
    const auto parsed = FaultModel::parse(model.label());
    ASSERT_TRUE(parsed.has_value()) << model.label();
    EXPECT_EQ(parsed->label(), model.label());
    EXPECT_EQ(parsed->domain, model.domain);
    EXPECT_EQ(parsed->pattern, model.pattern);
    EXPECT_TRUE(parsed->matches(model)) << model.label();
  }
}

TEST(FaultModel, ParseRejectsMalformedLabels) {
  const char* const bad[] = {
      "", "read", "read/", "/single", "bogus/single", "read/singleX",
      "read/m=,w=1", "read/m=3", "read/m=3,w=", "read/m=3,w=RND(2-)",
      "read/m=3,w=RND(2-10", "read/m=3,w=RND(10-2)", "read/m=3,w=1x",
      "read/burst=", "read/burst=0", "read/burst=65", "read/m=1,w=0",
      "write/m=3,w=1;read/single", "read/m=3,w=-1", "mem/burst=4x",
  };
  for (const char* label : bad) {
    EXPECT_FALSE(FaultModel::parse(label).has_value()) << label;
  }
}

TEST(FaultModel, MatchesIgnoresFlipWidthAndCanonicalizes) {
  FaultModel narrow = FaultModel::singleBit(FaultDomain::RegisterRead);
  narrow.flipWidth = 32;
  EXPECT_TRUE(narrow.matches(FaultModel::singleBit(FaultDomain::RegisterRead)));
  // A degenerate m=1 temporal model labels and behaves as single-bit.
  const FaultModel degenerate = FaultModel::multiBitTemporal(
      FaultDomain::RegisterRead, 1, WinSize::fixed(5));
  EXPECT_EQ(degenerate.label(), "read/single");
  EXPECT_TRUE(degenerate.matches(FaultModel::singleBit(FaultDomain::RegisterRead)));
  // Distinct cells never match.
  EXPECT_FALSE(FaultModel::singleBit(FaultDomain::RegisterRead)
                   .matches(FaultModel::singleBit(FaultDomain::MemoryData)));
  EXPECT_FALSE(
      FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 3, WinSize::fixed(1))
          .matches(FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 3,
                                                WinSize::fixed(2))));
  EXPECT_FALSE(FaultModel::burstAdjacent(FaultDomain::MemoryData, 2)
                   .matches(FaultModel::burstAdjacent(FaultDomain::MemoryData, 4)));
}

TEST(FaultModel, BurstOfOneIsTheSingleBitModel) {
  const FaultModel burst1 = FaultModel::burstAdjacent(FaultDomain::MemoryData, 1);
  EXPECT_EQ(burst1.pattern, BitPattern::singleBit());
  EXPECT_EQ(burst1.label(), "mem/single");
}

TEST(FaultModel, PaperModelClassification) {
  EXPECT_TRUE(FaultModel::singleBit(FaultDomain::RegisterRead).isPaperModel());
  EXPECT_TRUE(FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3,
                                           WinSize::fixed(1)).isPaperModel());
  EXPECT_FALSE(FaultModel::singleBit(FaultDomain::MemoryData).isPaperModel());
  EXPECT_FALSE(FaultModel::singleBit(FaultDomain::RandomValue).isPaperModel());
  EXPECT_FALSE(
      FaultModel::burstAdjacent(FaultDomain::RegisterRead, 2).isPaperModel());
}

TEST(FaultModel, FuzzedLabelsRoundTripAndMutationsNeverCrash) {
  // Fuzz-style extension of the 182-spelling table: thousands of randomized
  // valid models must round-trip label -> parse -> label exactly, and
  // truncated / mutated / garbage-suffixed labels must be handled strictly —
  // parse never crashes, and anything it does accept re-parses canonically.
  std::mt19937_64 rng(0x5eedf00dULL);
  const FaultDomain domains[] = {
      FaultDomain::RegisterRead, FaultDomain::RegisterWrite,
      FaultDomain::MemoryData, FaultDomain::RandomValue};
  auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(rng() % n);
  };
  auto randomModel = [&]() {
    const FaultDomain d = domains[pick(4)];
    switch (pick(4)) {
      case 0: return FaultModel::singleBit(d);
      case 1:
        return FaultModel::burstAdjacent(d, 1 + static_cast<unsigned>(pick(64)));
      case 2:
        return FaultModel::multiBitTemporal(
            d, 2 + static_cast<unsigned>(pick(29)), WinSize::fixed(pick(1000)));
      default: {
        const std::uint64_t lo = pick(50);
        return FaultModel::multiBitTemporal(
            d, 2 + static_cast<unsigned>(pick(29)),
            WinSize::random(lo, lo + 1 + pick(100)));
      }
    }
  };
  // Checks that whatever parse() accepted is in canonical form: its label
  // re-parses to the same label (the invariant every consumer of
  // ONEBIT_SPECS and store spec fields relies on).
  auto expectCanonical = [](const FaultModel& m, const std::string& from) {
    const auto again = FaultModel::parse(m.label());
    ASSERT_TRUE(again.has_value()) << "not canonical: " << from;
    EXPECT_EQ(again->label(), m.label()) << "from: " << from;
    EXPECT_TRUE(again->matches(m)) << "from: " << from;
  };
  const std::string printable =
      "abcdefghijklmnopqrstuvwxyzRND0123456789/=,()-_ ;.!";
  for (int iter = 0; iter < 2000; ++iter) {
    const FaultModel model = randomModel();
    const std::string label = model.label();
    const auto parsed = FaultModel::parse(label);
    ASSERT_TRUE(parsed.has_value()) << label;
    EXPECT_EQ(parsed->label(), label);
    EXPECT_EQ(parsed->domain, model.domain);
    EXPECT_EQ(parsed->pattern, model.pattern);
    EXPECT_TRUE(parsed->matches(model)) << label;

    // Every proper prefix: strict rejection, except where truncation forms
    // a different valid spelling (e.g. "...w=10" -> "...w=1") — which must
    // then be canonical.
    for (std::size_t n = 0; n < label.size(); ++n) {
      if (const auto p = FaultModel::parse(label.substr(0, n))) {
        expectCanonical(*p, label.substr(0, n));
      }
    }
    // Single-character mutations: no crash; accepted mutants re-parse
    // canonically (a digit swap is just a different cell).
    for (int m = 0; m < 8; ++m) {
      std::string mutated = label;
      mutated[pick(mutated.size())] = printable[pick(printable.size())];
      if (const auto p = FaultModel::parse(mutated)) {
        expectCanonical(*p, mutated);
      }
    }
    // Non-digit garbage appended to a canonical label is always rejected
    // (labels end in "single", a digit run, or a closing paren — none of
    // which may be followed by anything).
    for (const char c : std::string("x;() -=/w,")) {
      EXPECT_FALSE(FaultModel::parse(label + c).has_value())
          << label << "+" << c;
    }
  }
}

class WinSizeSample
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {
};

TEST_P(WinSizeSample, RandomDrawStaysInRange) {
  const auto [lo, hi] = GetParam();
  const WinSize w = WinSize::random(lo, hi);
  util::Rng rng(lo * 31 + hi);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t v = w.sample(rng);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    seen.insert(v);
  }
  if (hi - lo >= 4) {
    EXPECT_GT(seen.size(), 2u);  // actually random
  }
}

INSTANTIATE_TEST_SUITE_P(TableOneRanges, WinSizeSample,
                         ::testing::Values(std::pair{2ULL, 10ULL},
                                           std::pair{11ULL, 100ULL},
                                           std::pair{101ULL, 1000ULL},
                                           std::pair{5ULL, 5ULL}));

TEST(WinSize, FullRangeRandomDrawIsNotConstant) {
  // RND(0-18446744073709551615) spans 2^64 values: hi - lo + 1 wraps to 0,
  // and the draw must still cover the range rather than stick at lo.
  const WinSize w = WinSize::random(0, ~std::uint64_t{0});
  util::Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(w.sample(rng));
  EXPECT_GT(seen.size(), 90u);
}

TEST(WinSize, FixedSampleIsConstant) {
  const WinSize w = WinSize::fixed(7);
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(w.sample(rng), 7u);
}

// --- FaultPlan -------------------------------------------------------------------

TEST(FaultPlan, DeterministicForSameInputs) {
  const FaultModel spec =
      FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 5, WinSize::random(2, 10));
  const FaultPlan a = FaultPlan::forExperiment(spec, 100000, 42, 7);
  const FaultPlan b = FaultPlan::forExperiment(spec, 100000, 42, 7);
  EXPECT_EQ(a.firstIndex, b.firstIndex);
  EXPECT_EQ(a.window, b.window);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(FaultPlan, DifferentExperimentsDiffer) {
  const FaultModel spec = FaultModel::singleBit(FaultDomain::RegisterWrite);
  const FaultPlan a = FaultPlan::forExperiment(spec, 100000, 42, 0);
  const FaultPlan b = FaultPlan::forExperiment(spec, 100000, 42, 1);
  EXPECT_TRUE(a.firstIndex != b.firstIndex || a.seed != b.seed);
}

TEST(FaultPlan, FirstIndexWithinCandidateCount) {
  const FaultModel spec = FaultModel::singleBit(FaultDomain::RegisterRead);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FaultPlan p = FaultPlan::forExperiment(spec, 37, 99, i);
    EXPECT_LT(p.firstIndex, 37u);
  }
}

TEST(FaultPlan, WindowSampledOnlyForMultiBit) {
  const FaultModel single = FaultModel::singleBit(FaultDomain::RegisterRead);
  EXPECT_EQ(FaultPlan::forExperiment(single, 10, 1, 0).window, 0u);
  const FaultModel multi =
      FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 2, WinSize::fixed(55));
  EXPECT_EQ(FaultPlan::forExperiment(multi, 10, 1, 0).window, 55u);
}

TEST(FaultPlan, AtLocationPinsFirstIndex) {
  const FaultModel spec =
      FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3, WinSize::fixed(4));
  const FaultPlan p = FaultPlan::atLocation(spec, 777, 1, 0);
  EXPECT_EQ(p.firstIndex, 777u);
  EXPECT_EQ(p.window, 4u);
}

// --- grids -----------------------------------------------------------------------

TEST(Grid, PaperCampaignCountIs182) {
  EXPECT_EQ(paperCampaigns(FaultDomain::RegisterRead).size(), 91u);
  EXPECT_EQ(paperCampaigns().size(), 182u);
}

TEST(Grid, FirstCampaignIsSingleBit) {
  EXPECT_TRUE(paperCampaigns(FaultDomain::RegisterRead).front().isSingleBit());
}

TEST(Grid, MultiRegisterGridExcludesWinZero) {
  const auto specs = multiRegisterCampaigns(FaultDomain::RegisterWrite);
  EXPECT_EQ(specs.size(), 81u);  // 1 single + 8 win-sizes x 10 max-MBF
  for (const auto& s : specs) {
    if (s.isSingleBit()) continue;
    EXPECT_FALSE(s.spread.kind == WinSize::Kind::Fixed &&
                 s.spread.value == 0);
  }
}

TEST(Grid, SameRegisterGridIsElevenBars) {
  const auto specs = sameRegisterCampaigns(FaultDomain::RegisterRead);
  EXPECT_EQ(specs.size(), 11u);  // single + {2..10, 30}
  for (const auto& s : specs) {
    if (s.isSingleBit()) continue;
    EXPECT_EQ(s.spread.value, 0u);
  }
}

// --- injector hook -----------------------------------------------------------------

/// A workload with a long straight-line chain of adds so candidate indices
/// are easy to reason about.
ir::Module chainModule(int length) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  const auto entry = b.createBlock("entry");
  b.setInsertBlock(entry);
  ir::Reg acc = b.emitConstI(1);
  for (int i = 0; i < length; ++i) {
    acc = b.emitBin(ir::Opcode::Add, ir::Operand::makeReg(acc),
                    ir::Operand::makeImm(0), ir::Type::I64);
  }
  b.emitPrint(ir::Operand::makeReg(acc), ir::PrintKind::I64);
  b.emitRet(ir::Operand::makeReg(acc));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(Injector, SingleBitFlipsExactlyOneBitOnce) {
  const ir::Module mod = chainModule(50);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::singleBit();
  plan.firstIndex = 10;
  plan.seed = 77;
  InjectorHook hook(plan);
  const vm::ExecResult r = vm::execute(mod, {}, &hook);
  EXPECT_EQ(r.status, vm::ExecStatus::Ok);
  EXPECT_EQ(hook.activations(), 1u);
  ASSERT_EQ(hook.records().size(), 1u);
  EXPECT_EQ(hook.records()[0].candidateIndex, 10u);
  EXPECT_EQ(std::popcount(hook.records()[0].flipMask), 1);
}

TEST(Injector, ReadInjectionCorruptsTheValueChain) {
  // Flipping any bit of the running accumulator changes the printed value.
  const ir::Module mod = chainModule(50);
  const vm::ExecResult golden = vm::execute(mod);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::singleBit();
  plan.firstIndex = 5;
  plan.seed = 3;
  InjectorHook hook(plan);
  const vm::ExecResult faulty = vm::execute(mod, {}, &hook);
  EXPECT_NE(faulty.output, golden.output);
}

TEST(Injector, WriteTechniqueIgnoresReadStream) {
  const ir::Module mod = chainModule(20);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterWrite;
  plan.pattern = BitPattern::singleBit();
  plan.firstIndex = 3;
  plan.seed = 5;
  InjectorHook hook(plan);
  vm::execute(mod, {}, &hook);
  ASSERT_EQ(hook.records().size(), 1u);
  EXPECT_EQ(hook.records()[0].operandIndex, -1);  // write record
}

TEST(Injector, SameRegisterModeFlipsDistinctBitsAtOnce) {
  const ir::Module mod = chainModule(50);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterWrite;
  plan.pattern = BitPattern::multiBitTemporal(5);
  plan.window = 0;  // same-register mode
  plan.firstIndex = 7;
  plan.seed = 11;
  InjectorHook hook(plan);
  vm::execute(mod, {}, &hook);
  ASSERT_EQ(hook.records().size(), 1u);  // one event, five bits
  EXPECT_EQ(std::popcount(hook.records()[0].flipMask), 5);
  EXPECT_EQ(hook.activations(), 5u);
}

TEST(Injector, WindowSpacingIsRespected) {
  const ir::Module mod = chainModule(200);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::multiBitTemporal(4);
  plan.window = 10;
  plan.firstIndex = 20;
  plan.seed = 13;
  InjectorHook hook(plan);
  vm::execute(mod, {}, &hook);
  ASSERT_EQ(hook.records().size(), 4u);
  for (std::size_t i = 1; i < hook.records().size(); ++i) {
    EXPECT_GE(hook.records()[i].instrIndex,
              hook.records()[i - 1].instrIndex + 10);
  }
}

TEST(Injector, WindowsReachingPastTheLastInstructionInjectOnce) {
  // A window that reaches past instruction 2^64 - 1 arms nothing: instrIndex
  // + window must saturate, not wrap to an index already passed (which made
  // the widest windows flip more often than narrow ones).
  const ir::Module mod = chainModule(200);
  for (const std::uint64_t k : {0ULL, 1ULL, 5ULL, 100ULL, 1000ULL}) {
    FaultPlan plan;
    plan.domain = FaultDomain::RegisterRead;
    plan.pattern = BitPattern::multiBitTemporal(30);
    plan.window = ~std::uint64_t{0} - k;
    plan.firstIndex = 20;
    plan.seed = 19 + k;
    InjectorHook hook(plan);
    const vm::ExecResult r = vm::execute(mod, {}, &hook);
    EXPECT_EQ(r.status, vm::ExecStatus::Ok) << "k " << k;
    EXPECT_EQ(hook.activations(), 1u) << "k " << k;
  }
}

TEST(Injector, WindowOneHitsConsecutiveCandidates) {
  const ir::Module mod = chainModule(100);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::multiBitTemporal(3);
  plan.window = 1;
  plan.firstIndex = 10;
  plan.seed = 17;
  InjectorHook hook(plan);
  vm::execute(mod, {}, &hook);
  ASSERT_EQ(hook.records().size(), 3u);
  // Straight-line adds: every instruction is a candidate, so spacing is
  // exactly one dynamic instruction.
  EXPECT_EQ(hook.records()[1].instrIndex, hook.records()[0].instrIndex + 1);
}

TEST(Injector, ActivationsNeverExceedMaxMbf) {
  const ir::Module mod = chainModule(100);
  for (const unsigned m : {1U, 2U, 5U, 10U, 30U}) {
    FaultPlan plan;
    plan.domain = FaultDomain::RegisterRead;
    plan.pattern = BitPattern::multiBitTemporal(m);
    plan.window = 1;
    plan.firstIndex = 0;
    plan.seed = m;
    InjectorHook hook(plan);
    vm::execute(mod, {}, &hook);
    EXPECT_LE(hook.activations(), m);
  }
}

TEST(Injector, LateFirstIndexNeverActivates) {
  const ir::Module mod = chainModule(10);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::multiBitTemporal(3);
  plan.window = 1;
  plan.firstIndex = 1'000'000;  // beyond the candidate stream
  plan.seed = 5;
  InjectorHook hook(plan);
  const vm::ExecResult r = vm::execute(mod, {}, &hook);
  EXPECT_EQ(hook.activations(), 0u);
  EXPECT_EQ(r.status, vm::ExecStatus::Ok);
}

TEST(Injector, DeterministicGivenPlan) {
  const ir::Module mod = chainModule(80);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterWrite;
  plan.pattern = BitPattern::multiBitTemporal(3);
  plan.window = 5;
  plan.firstIndex = 12;
  plan.seed = 99;
  InjectorHook h1(plan);
  const vm::ExecResult r1 = vm::execute(mod, {}, &h1);
  InjectorHook h2(plan);
  const vm::ExecResult r2 = vm::execute(mod, {}, &h2);
  EXPECT_EQ(r1.output, r2.output);
  ASSERT_EQ(h1.records().size(), h2.records().size());
  for (std::size_t i = 0; i < h1.records().size(); ++i) {
    EXPECT_EQ(h1.records()[i].flipMask, h2.records()[i].flipMask);
    EXPECT_EQ(h1.records()[i].candidateIndex,
              h2.records()[i].candidateIndex);
  }
}

TEST(Injector, ReadInjectionOnlyTargetsRegisterOperands) {
  // In the chain module operand 1 of each add is an immediate; the injector
  // must always pick operand 0.
  const ir::Module mod = chainModule(30);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterRead;
  plan.pattern = BitPattern::multiBitTemporal(5);
  plan.window = 1;
  plan.firstIndex = 2;
  plan.seed = 21;
  InjectorHook hook(plan);
  vm::execute(mod, {}, &hook);
  for (const auto& rec : hook.records()) {
    EXPECT_EQ(rec.operandIndex, 0);
  }
}

// --- burst pattern -----------------------------------------------------------------

/// The bits of `mask` form one contiguous run of exactly `k` set bits.
bool isAdjacentRun(std::uint64_t mask, unsigned k) {
  if (mask == 0) return false;
  const int tz = std::countr_zero(mask);
  const std::uint64_t run = mask >> tz;
  return std::popcount(mask) == static_cast<int>(k) &&
         (run & (run + 1)) == 0;  // run + 1 is a power of two
}

TEST(Injector, BurstFlipsAdjacentBitsInOneEvent) {
  const ir::Module mod = chainModule(60);
  for (const unsigned k : {2U, 4U, 7U}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      FaultPlan plan;
      plan.domain = FaultDomain::RegisterWrite;
      plan.pattern = BitPattern::burstAdjacent(k);
      plan.firstIndex = 9;
      plan.seed = seed * 31 + k;
      InjectorHook hook(plan);
      vm::execute(mod, {}, &hook);
      ASSERT_EQ(hook.records().size(), 1u);  // ONE event, k bits
      EXPECT_TRUE(isAdjacentRun(hook.records()[0].flipMask, k))
          << std::hex << hook.records()[0].flipMask;
      EXPECT_EQ(hook.activations(), k);
    }
  }
}

TEST(Injector, BurstRespectsFlipWidth) {
  const ir::Module mod = chainModule(60);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    FaultPlan plan;
    plan.domain = FaultDomain::RegisterRead;
    plan.pattern = BitPattern::burstAdjacent(4);
    plan.flipWidth = 16;
    plan.firstIndex = 5;
    plan.seed = seed;
    InjectorHook hook(plan);
    vm::execute(mod, {}, &hook);
    ASSERT_EQ(hook.records().size(), 1u);
    EXPECT_EQ(hook.records()[0].flipMask & ~0xffffULL, 0u)
        << std::hex << hook.records()[0].flipMask;
  }
}

TEST(Injector, BurstWiderThanLocusClampsAndExhausts) {
  // k wider than the flip width still applies exactly one clamped event.
  const ir::Module mod = chainModule(60);
  FaultPlan plan;
  plan.domain = FaultDomain::RegisterWrite;
  plan.pattern = BitPattern::burstAdjacent(32);
  plan.flipWidth = 8;
  plan.firstIndex = 3;
  plan.seed = 11;
  InjectorHook hook(plan);
  vm::execute(mod, {}, &hook);
  ASSERT_EQ(hook.records().size(), 1u);
  EXPECT_EQ(hook.records()[0].flipMask, 0xffULL);  // the whole 8-bit locus
  EXPECT_EQ(hook.activations(), 8u);
}

}  // namespace
}  // namespace onebit::fi
