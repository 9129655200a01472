// Differential backend fuzzer: the proof that DispatchBackend::Threaded is
// bit-identical to the reference switch loop.
//
//  * a seeded generator produces hundreds of random MiniC programs —
//    bounded loops, helper calls, masked and deliberately out-of-range
//    array indexing, integer division (including by computed zero), double
//    math through the intrinsics, interleaved prints — and every program
//    runs once per backend; outputs, traps, all candidate counters, the
//    return value, and the full post-run machine state (Machine::compare)
//    must match;
//  * fault-injection rounds: plans from every FaultDomain drive an
//    InjectorHook through both backends (the hooked prefix is shared, the
//    post-exhaustion suffix is where the backends diverge in code path);
//  * capture rounds run the snapshotting golden run on each backend: both
//    must stop on the same instructions and keep equal snapshots, field by
//    field, over the whole corpus;
//  * snapshot-resume rounds enter the threaded stream mid-block,
//    mid-call-stack, from those snapshots — in one round at every
//    instruction of the run;
//  * a fuel sweep stops the run on every instruction of its first few
//    thousand, so fuel runs out on every Op of a segment, on Call and Ret,
//    and on the first and every interior Op of each superinstruction kind
//    (asked of the decoder's own ThreadedCode::choose);
//  * a stop sweep pauses the run with Machine::runUntil on every
//    instruction of its first few thousand: both backends must pause in
//    the same state and then finish identically;
//  * hand-built IR the MiniC compiler never emits: every integer op in
//    every operand form, and immediate Load/Store addresses past,
//    straddling and misaligned at the globals' end or in the stack, the
//    heap and unmapped space — only the in-range, aligned ones may take
//    the decoder's unchecked global handlers;
//  * the whole corpus must get every handler slot assigned at least once,
//    so each specialized and fused handler is held to the reference loop.
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fi/fault_plan.hpp"
#include "fi/injector_hook.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "vm/machine.hpp"
#include "vm/snapshot.hpp"
#include "vm/threaded.hpp"

namespace onebit {
namespace {

struct RunOutcome {
  vm::ExecResult result;
  std::unique_ptr<vm::Machine> machine;  ///< the finished machine
};

/// A machine for `mod` on `backend` that has not run yet.
RunOutcome start(const ir::Module& mod, vm::DispatchBackend backend,
                 vm::ExecHook* hook = nullptr,
                 std::uint64_t fuel = 2'000'000) {
  vm::ExecLimits limits;
  limits.dispatch = backend;
  limits.maxInstructions = fuel;
  return {{}, std::make_unique<vm::Machine>(mod, limits, hook)};
}

RunOutcome runOnce(const ir::Module& mod, vm::DispatchBackend backend,
                   vm::ExecHook* hook = nullptr,
                   std::uint64_t fuel = 2'000'000) {
  RunOutcome out = start(mod, backend, hook, fuel);
  out.result = out.machine->run();
  return out;
}

void expectSameRun(const RunOutcome& sw, const RunOutcome& th,
                   const std::string& context) {
  EXPECT_EQ(sw.result.status, th.result.status) << context;
  EXPECT_EQ(sw.result.trap, th.result.trap) << context;
  EXPECT_EQ(sw.result.instructions, th.result.instructions) << context;
  EXPECT_EQ(sw.result.readCandidates, th.result.readCandidates) << context;
  EXPECT_EQ(sw.result.writeCandidates, th.result.writeCandidates) << context;
  EXPECT_EQ(sw.result.storeCandidates, th.result.storeCandidates) << context;
  EXPECT_EQ(sw.result.returnValue, th.result.returnValue) << context;
  EXPECT_EQ(sw.result.outputTruncated, th.result.outputTruncated) << context;
  EXPECT_EQ(sw.result.output, th.result.output) << context;
  EXPECT_EQ(th.machine->compare(sw.machine->capture()), vm::StateDiff::Equal)
      << context;
}

using Fusion = vm::ThreadedCode::Fusion;
using Slot = vm::ThreadedCode::Slot;

/// One interior Op of a superinstruction: its idiom, and its position in it
/// (1 = the superinstruction's second Op).
using InteriorOp = std::pair<Fusion, std::size_t>;

/// Every interior Op the decoder can form.
const InteriorOp kInteriorOps[] = {
    {Fusion::OpMove, 1},        {Fusion::CmpBr, 1},
    {Fusion::MulAdd, 1},        {Fusion::MulAddLoad, 1},
    {Fusion::MulAddLoad, 2},    {Fusion::AddLoad, 1},
    {Fusion::AddMoveBr, 1},     {Fusion::AddMoveBr, 2},
    {Fusion::MoveAddMoveBr, 1}, {Fusion::MoveAddMoveBr, 2},
    {Fusion::MoveAddMoveBr, 3},
};

const char* fusionName(Fusion f) {
  switch (f) {
    case Fusion::None: return "none";
    case Fusion::OpMove: return "op+move";
    case Fusion::CmpBr: return "icmp+condbr";
    case Fusion::MulAdd: return "mul+add";
    case Fusion::MulAddLoad: return "mul+add+load";
    case Fusion::AddLoad: return "add+load";
    case Fusion::AddMoveBr: return "add+move+br";
    case Fusion::MoveAddMoveBr: return "move+add+move+br";
  }
  return "?";
}

/// Counts, per interior Op kind, the stops or entries that landed on one.
using InteriorCounts = std::map<InteriorOp, int>;

/// Count instruction `ip` of `bb` in every superinstruction it lies inside,
/// asking the decoder's own choice function which those are.
void countInterior(const ir::Module& mod, const ir::BasicBlock& bb,
                   std::size_t ip, InteriorCounts& counts) {
  for (std::size_t k = 1; k <= 3 && k <= ip; ++k) {
    const vm::ThreadedCode::Choice c =
        vm::ThreadedCode::choose(bb, ip - k, mod.globalData.size());
    if (c.span > k) ++counts[{c.fusion, k}];
  }
}

/// True when the Op of instruction `ip` of `bb` starts a superinstruction.
bool startsSuper(const ir::Module& mod, const ir::BasicBlock& bb,
                 std::size_t ip) {
  return vm::ThreadedCode::choose(bb, ip, mod.globalData.size()).span > 1;
}

void expectEveryInteriorOp(const InteriorCounts& counts, const char* what) {
  for (const InteriorOp& io : kInteriorOps) {
    const auto it = counts.find(io);
    EXPECT_TRUE(it != counts.end() && it->second > 0)
        << what << " never landed on Op " << io.second << " of "
        << fusionName(io.first);
  }
}

/// Random-program generator. Every emitted program is valid MiniC by
/// construction; its *behavior* is unconstrained — programs may trap
/// (division by a computed zero, out-of-range indices into the global
/// array) or run clean, and both classes must agree across backends.
/// Every program opens with loops that hold each idiom the threaded
/// decoder fuses (array reads and writes through global, local and heap
/// bases, byte arrays, every `for` latch shape, compare-and-branch), and
/// the statement mix draws every integer op in
/// every operand form, with and without a move of its result, ICmps
/// feeding `if`s, global scalars read and written (from immediates too) and
/// the generic FP and division ops.
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    size_ = pick({16, 32, 64});
    const int lcgSeed = intIn(1, 1 << 20);
    std::string src;
    src += "int a[" + std::to_string(size_) + "];\n";
    src += "int seed = " + std::to_string(lcgSeed) + ";\n";
    src += "double dacc = " + std::to_string(intIn(1, 9)) + ".5;\n";
    src += "char b[16];\n";
    src += "char gc = " + std::to_string(intIn(0, 255)) + ";\n";
    src += "int gk;\n";
    src +=
        "int rnd() { seed = (seed * 1103515245 + 12345) & 1073741823; "
        "return seed; }\n";
    src += "int f1(int x, int y) { int z = x * " +
           std::to_string(intIn(2, 9)) + " + y; if (z % 3 == 0) { z = z - " +
           std::to_string(intIn(1, 40)) + "; } return z & 1048575; }\n";
    src += "double g1(double x, int k) { return x * 0.5 + (double)k * " +
           std::to_string(intIn(1, 4)) + ".25; }\n";
    src += "int main() {\n";
    src += "  int u = " + std::to_string(intIn(-50, 50)) + ";\n";
    src += "  int w = " + std::to_string(intIn(1, 99)) + ";\n";
    src += "  double dl = " + std::to_string(intIn(0, 5)) + ".75;\n";
    src += "  int la[8];\n";
    src += "  char lb[16];\n";
    src += "  int st = 1 + (" + std::to_string(intIn(0, 9)) + " & 1);\n";
    // The fused idioms, early enough for the fuel and stop sweeps.
    src += "  for (int j = 0; j < 4; j = j + 1) { lb[j] = j * 5 + u; "
           "la[j] = lb[j] + b[j]; }\n";
    src += "  for (int j = 0; j < 4; j++) { u = u + la[j] + a[j] + lb[3]; }\n";
    src += "  for (int j = 0; j < 6; j += st) { w = w ^ lb[(j + u) & 15]; }\n";
    src += "  for (int j = 0; j < 3; j = 1 + j) { gc = u; w = w + gc; }\n";
    src += "  for (int i = 0; i < " + std::to_string(size_) +
           "; i++) { a[i] = rnd() % " + std::to_string(intIn(50, 2000)) +
           "; }\n";
    src += "  int s = " + std::to_string(intIn(0, 100)) + ";\n";
    src += "  int t = " + std::to_string(intIn(1, 50)) + ";\n";
    src += "  int* p = alloc_int(8);\n";
    src += "  for (int i = 0; i < 8; i++) { p[i] = a[i] + i; }\n";
    const int rounds = intIn(2, 6);
    src += "  for (int r = 0; r < " + std::to_string(rounds) + "; r++) {\n";
    const int stmts = intIn(4, 12);
    for (int i = 0; i < stmts; ++i) src += "    " + statement() + "\n";
    src += "  }\n";
    src += "  print_i(s); print_c(32); print_i(t); print_c(10);\n";
    src += "  print_i(u); print_c(32); print_i(w); print_c(32); "
           "print_i(gc); print_c(32); print_i(gk); print_c(10);\n";
    src += "  print_f(dacc); print_c(32); print_f(dl); print_c(10);\n";
    src += "  return s % 7;\n";
    src += "}\n";
    return src;
  }

 private:
  int intIn(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  int pick(std::initializer_list<int> xs) {
    auto it = xs.begin();
    std::advance(it, intIn(0, static_cast<int>(xs.size()) - 1));
    return *it;
  }
  const char* pickOf(std::initializer_list<const char*> xs) {
    auto it = xs.begin();
    std::advance(it, intIn(0, static_cast<int>(xs.size()) - 1));
    return *it;
  }
  std::string idx(const std::string& e) {
    return "a[(" + e + ") % " + std::to_string(size_) + "]";
  }
  std::string k(int lo, int hi) { return std::to_string(intIn(lo, hi)); }

  /// `x op y` over u and w for a random non-trapping integer op, in a
  /// random operand form: reg,reg, reg,imm or imm,reg (`k - x`).
  std::string intOp() {
    const char* op = pickOf({"+", "-", "*", "&", "|", "^", "<<", ">>", "==",
                             "!=", "<", "<=", ">", ">="});
    switch (intIn(0, 2)) {
      case 0: return std::string("u ") + op + " w";
      case 1: return std::string("u ") + op + " " + k(0, 9);
      default: return k(0, 9) + " " + op + " w";
    }
  }

  std::string statement() {
    switch (intIn(0, 19)) {
      case 0:
        return "s = (s * " + std::to_string(intIn(3, 97)) + " + " +
               idx("s & 4095") + " + r) & 1048575;";
      case 1:
        return idx("s + " + std::to_string(intIn(0, 63))) + " = " +
               idx("s * 3 + r") + " + t;";
      case 2:
        return "t = f1(s, " + idx("r") + ");";
      case 3:
        return "if (s % 2 == 1) { s = s + t; } else { t = t - 1; }";
      case 4:
        return "dacc = g1(dacc, " + idx("r + " + std::to_string(intIn(0, 7))) +
               ");";
      case 5:
        return "dacc = dacc + sqrt((double)(" + idx("r") + " % 77 + 1));";
      case 6:
        // Denominator can reach zero -> DivByZero trap in some programs.
        return "s = s + t / (" + idx("s + r") + " % " +
               std::to_string(intIn(2, 9)) + " + " +
               std::to_string(intIn(0, 1)) + ");";
      case 7:
        // Unmasked index: out of range whenever the draw lands past the
        // array (for the byte array, past the globals) -> SegFault trap in
        // some programs.
        if (intIn(0, 3) == 0) return "s = s + b[rnd() % 48];";
        return "s = s + a[rnd() % " + std::to_string(size_ + intIn(0, 24)) +
               "];";
      case 8:
        return "p[(s + r) % 8] = p[(t + r) % 8] + " +
               std::to_string(intIn(1, 30)) + ";";
      case 9:
        return "t = (t << " + std::to_string(intIn(1, 6)) + ") % 65521 + " +
               "(s >> " + std::to_string(intIn(1, 4)) + ");";
      case 10:
        return "while (t > " + std::to_string(intIn(200, 900)) +
               ") { t = t / 2; }";
      case 11:
        return "s = s - " + idx("t") + " % 257;";
      case 12:
        // Integer ops whose result a Move copies (op+move twins).
        return "u = " + intOp() + "; w = " + intOp() + "; u = " + intOp() +
               "; w = " + intOp() + ";";
      case 13: {
        // Integer ops whose result feeds another op (plain handlers), and
        // two-immediate forms (generic handlers).
        const char* op = pickOf({"+", "-", "*", "&", "|", "^", "<<", ">>",
                                 "==", "!=", "<", "<=", ">", ">="});
        return "w = (" + intOp() + ") + w; u = (" + intOp() +
               ") - u; u = u + (" + k(0, 9) + " " + op + " " + k(0, 9) +
               ");";
      }
      case 14:
        // ICmps feeding `if`s, in every form, and a register condition.
        return "if (" + intOp() + ") { u = u + " + k(1, 9) +
               "; } else { w = w - " + k(1, 9) + "; } if (" + intOp() +
               ") { w = w + 1; } if (u & " + k(1, 7) + ") { w = w ^ u; }";
      case 15:
        // Global byte array and global scalars, stored from registers and
        // from immediates.
        return "b[(u + r) & 15] = b[(w + r) & 15] + u; gc = w; u = u + gc; "
               "w = gc; gk = u + r; u = gk; w = w + gk; gk = " +
               k(0, 999) + ";";
      case 16:
        // Local arrays, read into a register by a move.
        return "la[(u + r) & 7] = la[(w + r) & 7] * 3 + lb[u & 15]; "
               "w = la[(w + r) & 7]; lb[(w + r) & 15] = u;";
      case 17:
        // Generic FP ops and divisions, alone and moved.
        return std::string("dl = dl ") + pickOf({"+", "-", "*", "/"}) +
               " 1.5; w = dl " + pickOf({"==", "!=", "<", "<=", ">", ">="}) +
               " 2.5; u = u + (dl " +
               pickOf({"==", "!=", "<", "<=", ">", ">="}) +
               " dacc); dl = (dl - dacc) / 3.0 + dl * 0.5; u = u + (int)dl; "
               "w = u / " + k(1, 9) + "; u = u % " + k(1, 9) + ";";
      case 18:
        // Loop latches of every shape, and an immediate condition.
        return std::string("for (int j = 0; j < ") + k(1, 4) + "; " +
               pickOf({"j++", "j = j + 1", "j = 1 + j", "j += st"}) +
               ") { w = w + j; } if (1) { u = u + 1; }";
      default:
        return "if (u == 123456789) { abort(); }";
    }
  }

  std::mt19937_64 rng_;
  int size_ = 32;
};

TEST(DispatchDifferential, FiveHundredRandomProgramsBitIdentical) {
  constexpr int kPrograms = 500;
  int trapped = 0;
  int clean = 0;
  for (int i = 0; i < kPrograms; ++i) {
    ProgramGen gen(0xD15BA7C4ULL + static_cast<std::uint64_t>(i));
    const std::string src = gen.generate();
    ir::Module mod = lang::compileMiniC(src);
    const RunOutcome sw = runOnce(mod, vm::DispatchBackend::Switch);
    const RunOutcome th = runOnce(mod, vm::DispatchBackend::Threaded);
    expectSameRun(sw, th, "program " + std::to_string(i));
    if (sw.result.status == vm::ExecStatus::Trapped) ++trapped;
    if (sw.result.status == vm::ExecStatus::Ok) ++clean;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first diverging program:\n" << src;
      break;
    }
  }
  // The corpus must actually exercise both the clean path and the trap
  // paths, or "identical" proves less than it claims. The generator is
  // seeded, so these are deterministic, not flaky.
  EXPECT_GT(trapped, 10);
  EXPECT_GT(clean, 100);
}

TEST(DispatchDifferential, TinyFuelAgreesOnFuelExhaustion) {
  // The fuel check sits between fetch and execute; an off-by-one in either
  // backend shows up as a one-instruction disagreement here. Every fuel
  // value from 1 up stops the run on each of its first kMaxFuel
  // instructions in turn, so the threaded loop's per-segment fuel check
  // meets every offset into every segment it enters, superinstructions'
  // first and interior Ops included. The stopping instruction is read off
  // the reference machine's top frame (ip - 1 is the instruction fetched
  // last).
  constexpr std::uint64_t kMaxFuel = 2500;
  int stoppedAtCall = 0;
  int stoppedAtRet = 0;
  int stoppedAtSuperStart = 0;
  InteriorCounts stoppedInside;
  for (const std::uint64_t seed : {0xF0E1ULL, 0xF0E2ULL, 0xF0E3ULL}) {
    ProgramGen gen(seed);
    ir::Module mod = lang::compileMiniC(gen.generate());
    for (std::uint64_t fuel = 1; fuel <= kMaxFuel; ++fuel) {
      const RunOutcome sw =
          runOnce(mod, vm::DispatchBackend::Switch, nullptr, fuel);
      const RunOutcome th =
          runOnce(mod, vm::DispatchBackend::Threaded, nullptr, fuel);
      const std::string context = "seed " + std::to_string(seed) + " fuel " +
                                  std::to_string(fuel);
      expectSameRun(sw, th, context);
      if (::testing::Test::HasFailure()) return;
      if (sw.result.status != vm::ExecStatus::FuelExhausted) break;
      const vm::Snapshot::Frame top = sw.machine->capture().frames.back();
      const ir::BasicBlock& bb = mod.functions[top.fn].blocks[top.block];
      const std::size_t fetched = top.ip - 1;
      stoppedAtCall += bb.instrs[fetched].op == ir::Opcode::Call ? 1 : 0;
      stoppedAtRet += bb.instrs[fetched].op == ir::Opcode::Ret ? 1 : 0;
      stoppedAtSuperStart += startsSuper(mod, bb, fetched) ? 1 : 0;
      countInterior(mod, bb, fetched, stoppedInside);
    }
  }
  EXPECT_GT(stoppedAtCall, 0);
  EXPECT_GT(stoppedAtRet, 0);
  EXPECT_GT(stoppedAtSuperStart, 0);
  expectEveryInteriorOp(stoppedInside, "fuel exhaustion");
}

TEST(DispatchDifferential, TinyStopsPauseBothBackendsAlike) {
  // runUntil(n) shares the fuel check: the threaded loop parks at the start
  // of the segment that would cross n and the reference loop steps to it.
  // Every n from 1 up pauses the run before each of its first kMaxStop
  // instructions in turn (read off the reference machine's top frame: ip is
  // the next instruction), so the stop meets every offset into every
  // segment. Both backends must pause in the same state and then finish
  // identically: a pause before an interior Op of a superinstruction makes
  // the threaded loop enter the stream there.
  constexpr std::uint64_t kMaxStop = 2500;
  int stoppedAtCall = 0;
  int stoppedAtRet = 0;
  int stoppedAtSuperStart = 0;
  InteriorCounts stoppedInside;
  for (const std::uint64_t seed : {0xF0E1ULL, 0xF0E2ULL, 0xF0E3ULL}) {
    ProgramGen gen(seed);
    ir::Module mod = lang::compileMiniC(gen.generate());
    for (std::uint64_t n = 1; n <= kMaxStop; ++n) {
      RunOutcome sw = start(mod, vm::DispatchBackend::Switch);
      RunOutcome th = start(mod, vm::DispatchBackend::Threaded);
      const vm::Machine::Stop stop = sw.machine->runUntil(n);
      const std::string context =
          "seed " + std::to_string(seed) + " stop " + std::to_string(n);
      ASSERT_EQ(th.machine->runUntil(n), stop) << context;
      if (stop != vm::Machine::Stop::Paused) break;  // ended before n
      ASSERT_EQ(sw.machine->instructions(), n) << context;
      const vm::Snapshot paused = sw.machine->capture();
      ASSERT_EQ(th.machine->compare(paused), vm::StateDiff::Equal) << context;
      const vm::Snapshot::Frame& top = paused.frames.back();
      const ir::BasicBlock& bb = mod.functions[top.fn].blocks[top.block];
      stoppedAtCall += bb.instrs[top.ip].op == ir::Opcode::Call ? 1 : 0;
      stoppedAtRet += bb.instrs[top.ip].op == ir::Opcode::Ret ? 1 : 0;
      stoppedAtSuperStart += startsSuper(mod, bb, top.ip) ? 1 : 0;
      countInterior(mod, bb, top.ip, stoppedInside);
      sw.result = sw.machine->run();
      th.result = th.machine->run();
      expectSameRun(sw, th, context);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(stoppedAtCall, 0);
  EXPECT_GT(stoppedAtRet, 0);
  EXPECT_GT(stoppedAtSuperStart, 0);
  expectEveryInteriorOp(stoppedInside, "runUntil");
}

TEST(DispatchDifferential, InjectionRoundsAcrossAllDomains) {
  const fi::FaultDomain kDomains[] = {
      fi::FaultDomain::RegisterRead,
      fi::FaultDomain::RegisterWrite,
      fi::FaultDomain::MemoryData,
      fi::FaultDomain::RandomValue,
  };
  constexpr int kProgramsPerDomain = 12;
  constexpr int kPlansPerProgram = 6;
  for (const fi::FaultDomain domain : kDomains) {
    const fi::FaultModel model = fi::FaultModel::singleBit(domain);
    for (int p = 0; p < kProgramsPerDomain; ++p) {
      ProgramGen gen(0x1213E0ULL + static_cast<std::uint64_t>(p) * 131 +
                     static_cast<std::uint64_t>(domain));
      ir::Module mod = lang::compileMiniC(gen.generate());
      const RunOutcome golden = runOnce(mod, vm::DispatchBackend::Switch);
      const std::uint64_t candidates = [&] {
        switch (domain) {
          case fi::FaultDomain::RegisterRead:
            return golden.result.readCandidates;
          case fi::FaultDomain::RegisterWrite:
            return golden.result.writeCandidates;
          case fi::FaultDomain::MemoryData:
            return golden.result.storeCandidates;
          case fi::FaultDomain::RandomValue:
            return golden.result.instructions;
        }
        return golden.result.readCandidates;
      }();
      if (candidates == 0) continue;  // trapped before any candidate
      for (int e = 0; e < kPlansPerProgram; ++e) {
        const fi::FaultPlan plan = fi::FaultPlan::forExperiment(
            model, candidates, 0xCAFE + static_cast<std::uint64_t>(p),
            static_cast<std::uint64_t>(e));
        fi::InjectorHook swHook(plan);
        fi::InjectorHook thHook(plan);
        const RunOutcome sw =
            runOnce(mod, vm::DispatchBackend::Switch, &swHook);
        const RunOutcome th =
            runOnce(mod, vm::DispatchBackend::Threaded, &thHook);
        const std::string context =
            "domain " + std::to_string(static_cast<int>(domain)) +
            " program " + std::to_string(p) + " plan " + std::to_string(e);
        expectSameRun(sw, th, context);
        EXPECT_EQ(swHook.activations(), thHook.activations()) << context;
      }
    }
  }
}

/// Run executeWithSnapshots on both backends: the results and the kept
/// snapshots must be equal, field by field. Returns the reference loop's.
std::vector<vm::Snapshot> captureOnBothBackends(
    const ir::Module& mod, vm::ExecLimits limits,
    const vm::SnapshotCapturePolicy& policy, vm::ExecResult& full,
    const std::string& where) {
  std::vector<vm::Snapshot> sw;
  std::vector<vm::Snapshot> th;
  limits.dispatch = vm::DispatchBackend::Switch;
  full = vm::executeWithSnapshots(mod, limits, policy, sw);
  limits.dispatch = vm::DispatchBackend::Threaded;
  const vm::ExecResult b = vm::executeWithSnapshots(mod, limits, policy, th);
  EXPECT_EQ(full.status, b.status) << where;
  EXPECT_EQ(full.instructions, b.instructions) << where;
  EXPECT_EQ(full.output, b.output) << where;
  EXPECT_EQ(sw.size(), th.size()) << where;
  for (std::size_t k = 0; k < sw.size() && k < th.size(); ++k) {
    EXPECT_TRUE(sw[k] == th[k]) << where << " snapshot " << k << " at "
                                << sw[k].instructions << " / "
                                << th[k].instructions;
  }
  return sw;
}

TEST(DispatchDifferential, CaptureKeepsEqualSnapshotsOnBothBackends) {
  // Every corpus program at interval 1 (the retention cap coarsens the
  // cadence many times over, so stops land on every offset into early
  // segments) and at interval 64.
  constexpr int kPrograms = 500;
  std::size_t kept = 0;
  for (int i = 0; i < kPrograms; ++i) {
    ProgramGen gen(0xD15BA7C4ULL + static_cast<std::uint64_t>(i));
    const ir::Module mod = lang::compileMiniC(gen.generate());
    vm::ExecLimits limits;
    limits.maxInstructions = 2'000'000;
    for (const std::uint64_t interval : {1, 64}) {
      vm::SnapshotCapturePolicy policy;
      policy.interval = interval;
      vm::ExecResult full;
      kept += captureOnBothBackends(mod, limits, policy, full,
                                    "program " + std::to_string(i) +
                                        " interval " +
                                        std::to_string(interval))
                  .size();
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(kept, std::size_t{kPrograms} * 32);
}

/// Resume every snapshot on both backends; both continuations must agree
/// with each other and with the uninterrupted reference run.
void expectResumesAgree(const ir::Module& mod, const vm::ExecLimits& limits,
                        const vm::ExecResult& full,
                        const std::vector<vm::Snapshot>& snaps,
                        const std::string& where) {
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    vm::ExecLimits sw = limits;
    sw.dispatch = vm::DispatchBackend::Switch;
    vm::ExecLimits th = limits;
    th.dispatch = vm::DispatchBackend::Threaded;
    const vm::ExecResult a = vm::resume(mod, snaps[s], sw, nullptr);
    const vm::ExecResult b = vm::resume(mod, snaps[s], th, nullptr);
    const std::string context = where + " snapshot " + std::to_string(s);
    EXPECT_EQ(a.status, b.status) << context;
    EXPECT_EQ(a.trap, b.trap) << context;
    EXPECT_EQ(a.instructions, b.instructions) << context;
    EXPECT_EQ(a.output, b.output) << context;
    EXPECT_EQ(a.readCandidates, b.readCandidates) << context;
    EXPECT_EQ(a.writeCandidates, b.writeCandidates) << context;
    EXPECT_EQ(a.storeCandidates, b.storeCandidates) << context;
    // Both resumed continuations must also agree with the uninterrupted
    // reference run (the snapshot contract).
    EXPECT_EQ(b.status, full.status) << context;
    EXPECT_EQ(b.instructions, full.instructions) << context;
    EXPECT_EQ(b.output, full.output) << context;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DispatchDifferential, SnapshotResumeEntersThreadedMidBlock) {
  // Two capture rounds per program. Interval 64 with a cap keeps a spread
  // of mid-block, mid-call-stack points. Interval 1 with no retention cap
  // keeps a snapshot at every instruction, so the threaded loop is entered
  // on every interior Op of every superinstruction and right after every
  // Call (at the return point) that the run reaches.
  constexpr int kPrograms = 10;
  InteriorCounts enteredInside;
  int afterCall = 0;
  for (int p = 0; p < kPrograms; ++p) {
    ProgramGen gen(0x5AA5ULL + static_cast<std::uint64_t>(p) * 977);
    ir::Module mod = lang::compileMiniC(gen.generate());
    vm::ExecLimits limits;
    limits.maxInstructions = 2'000'000;
    vm::SnapshotCapturePolicy sparse;
    sparse.interval = 64;
    sparse.maxSnapshots = 32;
    vm::SnapshotCapturePolicy every;
    every.interval = 1;
    every.maxSnapshots = 0;
    every.budgetBytes = 0;
    for (const vm::SnapshotCapturePolicy& capture : {sparse, every}) {
      const std::string where = "program " + std::to_string(p) +
                                " interval " +
                                std::to_string(capture.interval);
      vm::ExecResult full;
      const std::vector<vm::Snapshot> snaps =
          captureOnBothBackends(mod, limits, capture, full, where);
      ASSERT_FALSE(snaps.empty()) << where;
      expectResumesAgree(mod, limits, full, snaps, where);
      if (capture.interval != 1) continue;
      for (const vm::Snapshot& snap : snaps) {
        const vm::Snapshot::Frame& top = snap.frames.back();
        const ir::BasicBlock& bb = mod.functions[top.fn].blocks[top.block];
        countInterior(mod, bb, top.ip, enteredInside);
        afterCall +=
            top.ip > 0 && bb.instrs[top.ip - 1].op == ir::Opcode::Call ? 1
                                                                        : 0;
      }
    }
  }
  expectEveryInteriorOp(enteredInside, "snapshot resume");
  EXPECT_GT(afterCall, 0);
}

// ------------------------------------------------- hand-built IR modules

/// The globals segment of the address cases: 20 bytes, so the last 8-byte
/// word straddles its end.
constexpr std::size_t kCaseGlobals = 20;

/// One Load or Store at an immediate address, the kind MiniC never emits
/// outside its own globals. `main` allocates a 16-byte heap block and
/// stores to its frame first, so the heap and the stack are mapped, then
/// accesses `addr` and prints what a load read back.
struct AddressCase {
  const char* what;
  std::uint64_t addr;
  unsigned width;
  vm::TrapKind trap;  ///< what the reference loop must report
};

const AddressCase kAddressCases[] = {
    {"globals start, width 8", ir::kGlobalBase, 8, vm::TrapKind::None},
    {"globals word, width 8", ir::kGlobalBase + 8, 8, vm::TrapKind::None},
    {"globals last byte", ir::kGlobalBase + kCaseGlobals - 1, 1,
     vm::TrapKind::None},
    {"one past the globals, width 1", ir::kGlobalBase + kCaseGlobals, 1,
     vm::TrapKind::SegFault},
    {"one word past the globals, width 8", ir::kGlobalBase + 24, 8,
     vm::TrapKind::SegFault},
    {"straddling the globals' end, width 8", ir::kGlobalBase + 16, 8,
     vm::TrapKind::SegFault},
    {"misaligned in the globals, width 8", ir::kGlobalBase + 4, 8,
     vm::TrapKind::Misaligned},
    {"misaligned past the globals, width 8", ir::kGlobalBase + kCaseGlobals,
     8, vm::TrapKind::Misaligned},
    {"below the globals", ir::kGlobalBase - 8, 8, vm::TrapKind::SegFault},
    {"null", 0, 1, vm::TrapKind::SegFault},
    {"the stack, width 8", ir::kStackBase + 8, 8, vm::TrapKind::None},
    {"the stack, width 1", ir::kStackBase + 3, 1, vm::TrapKind::None},
    {"the heap, width 8", ir::kHeapBase + 8, 8, vm::TrapKind::None},
    {"the heap, width 1", ir::kHeapBase + 15, 1, vm::TrapKind::None},
    {"one past the heap", ir::kHeapBase + 16, 1, vm::TrapKind::SegFault},
    {"between the globals and the stack", 0x20000000, 8,
     vm::TrapKind::SegFault},
    {"the top of the address space", ~std::uint64_t{7}, 8,
     vm::TrapKind::SegFault},
};

/// How an address case touches its address.
enum class Access { Load, StoreReg, StoreImm };

ir::Module addressModule(const AddressCase& c, Access access) {
  ir::Module mod;
  for (std::size_t i = 0; i < kCaseGlobals; ++i) {
    mod.globalData.push_back(static_cast<std::uint8_t>(0xA0 + i));
  }
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  b.setInsertBlock(b.createBlock("entry"));
  const std::int64_t slot = b.allocFrame(16);
  const ir::Reg frame = b.emitFrameAddr(slot);
  b.emitStore(ir::Operand::makeReg(frame), ir::Operand::makeImm(0x5A), 8);
  b.emitAlloc(ir::Operand::makeImm(16));
  const ir::Operand at = ir::Operand::makeImm(c.addr);
  const ir::Reg value = b.emitConstI(0x1122334455667788);
  switch (access) {
    case Access::Load: {
      const ir::Reg v = b.emitLoad(at, c.width, ir::Type::I64);
      b.emitPrint(ir::Operand::makeReg(v), ir::PrintKind::I64);
      break;
    }
    case Access::StoreReg:
    case Access::StoreImm: {
      b.emitStore(at,
                  access == Access::StoreReg
                      ? ir::Operand::makeReg(value)
                      : ir::Operand::makeImm(0x0102030405060708),
                  c.width);
      // Read it back through a register address.
      const ir::Reg addr = b.emitConstI(static_cast<std::int64_t>(c.addr));
      const ir::Reg v =
          b.emitLoad(ir::Operand::makeReg(addr), c.width, ir::Type::I64);
      b.emitPrint(ir::Operand::makeReg(v), ir::PrintKind::I64);
      break;
    }
  }
  b.emitRet(ir::Operand::makeImm(0));
  ir::verifyOrThrow(mod);
  return mod;
}

/// Every non-trapping integer op in every operand form, alone, moved, and
/// (the ICmps) branched on, plus Const: the forms MiniC cannot emit (it has
/// no logical shift and no Const) next to the ones it can.
ir::Module formSweepModule() {
  using ir::Opcode;
  using ir::Operand;
  ir::Module mod;
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  b.setInsertBlock(b.createBlock("entry"));
  const ir::Reg x = b.emitConstI(-12345);
  const ir::Reg y = b.emitConstI(3);
  const ir::Reg acc = b.newReg();
  b.emitMoveInto(acc, Operand::makeImm(0), ir::Type::I64);
  const Opcode kOps[] = {
      Opcode::Add,    Opcode::Sub,    Opcode::Mul,    Opcode::And,
      Opcode::Or,     Opcode::Xor,    Opcode::Shl,    Opcode::LShr,
      Opcode::AShr,   Opcode::ICmpEq, Opcode::ICmpNe, Opcode::ICmpLt,
      Opcode::ICmpLe, Opcode::ICmpGt, Opcode::ICmpGe,
  };
  const Operand kForms[][2] = {
      {Operand::makeReg(x), Operand::makeReg(y)},
      {Operand::makeReg(x), Operand::makeImm(5)},
      {Operand::makeImm(7), Operand::makeReg(y)},
      {Operand::makeImm(7), Operand::makeImm(5)},
  };
  for (const Opcode op : kOps) {
    for (const auto& form : kForms) {
      const ir::Reg plain = b.emitBin(op, form[0], form[1], ir::Type::I64);
      b.emitPrint(Operand::makeReg(plain), ir::PrintKind::I64);
      const ir::Reg moved = b.emitBin(op, form[0], form[1], ir::Type::I64);
      b.emitMoveInto(acc, Operand::makeReg(moved), ir::Type::I64);
      b.emitPrint(Operand::makeReg(acc), ir::PrintKind::I64);
      if (op < Opcode::ICmpEq) continue;
      const ir::Reg c = b.emitBin(op, form[0], form[1], ir::Type::I64);
      const std::uint32_t taken = b.createBlock("taken");
      const std::uint32_t join = b.createBlock("join");
      b.emitCondBr(Operand::makeReg(c), taken, join);
      b.setInsertBlock(taken);
      b.emitPrint(Operand::makeImm('T'), ir::PrintKind::Char);
      b.emitBr(join);
      b.setInsertBlock(join);
    }
  }
  b.emitRet(Operand::makeReg(acc));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(DispatchDifferential, FormSweepBitIdentical) {
  const ir::Module mod = formSweepModule();
  const RunOutcome sw = runOnce(mod, vm::DispatchBackend::Switch);
  const RunOutcome th = runOnce(mod, vm::DispatchBackend::Threaded);
  ASSERT_EQ(sw.result.status, vm::ExecStatus::Ok);
  expectSameRun(sw, th, "form sweep");
}

TEST(DispatchDifferential, ImmediateAddressesOutsideMiniCAgree) {
  // Only in-range, aligned immediate addresses inside the globals take the
  // decoder's unchecked global handlers; every other one keeps the checked
  // path and must trap, or reach the stack or the heap, exactly as the
  // reference loop does.
  for (const AddressCase& c : kAddressCases) {
    for (const Access access :
         {Access::Load, Access::StoreReg, Access::StoreImm}) {
      const std::string context =
          std::string(c.what) + (access == Access::Load       ? " (load)"
                                 : access == Access::StoreReg ? " (store reg)"
                                                              : " (store imm)");
      const ir::Module mod = addressModule(c, access);
      const RunOutcome sw = runOnce(mod, vm::DispatchBackend::Switch);
      const RunOutcome th = runOnce(mod, vm::DispatchBackend::Threaded);
      EXPECT_EQ(sw.result.trap, c.trap) << context;
      expectSameRun(sw, th, context);
    }
  }
}

TEST(DispatchDifferential, CorpusAssignsEveryHandlerSlot) {
  // The differential corpus — the random programs, the form sweep and the
  // address cases — must give every handler slot to at least one Op, so
  // every handler, fused or not, is held to the reference loop (in the
  // portable build too, where each is a case of the switch). decode() takes
  // its slots from choose(), which this also checks.
  std::vector<ir::Module> corpus;
  for (int i = 0; i < 500; ++i) {
    ProgramGen gen(0xD15BA7C4ULL + static_cast<std::uint64_t>(i));
    corpus.push_back(lang::compileMiniC(gen.generate()));
  }
  corpus.push_back(formSweepModule());
  for (const AddressCase& c : kAddressCases) {
    for (const Access access :
         {Access::Load, Access::StoreReg, Access::StoreImm}) {
      corpus.push_back(addressModule(c, access));
    }
  }
  std::vector<int> assigned(vm::ThreadedCode::kNumSlots, 0);
  for (const ir::Module& mod : corpus) {
    const auto code = vm::ThreadedCode::decode(mod);
    std::size_t i = 0;
    for (const ir::Function& fn : mod.functions) {
      for (const ir::BasicBlock& bb : fn.blocks) {
        for (std::size_t ip = 0; ip < bb.instrs.size(); ++ip, ++i) {
          const Slot slot =
              vm::ThreadedCode::choose(bb, ip, mod.globalData.size()).slot;
          ASSERT_EQ(code->ops[i].handler, static_cast<std::uint8_t>(slot));
          ++assigned[static_cast<std::size_t>(slot)];
        }
      }
    }
  }
  for (std::size_t s = 0; s < assigned.size(); ++s) {
    EXPECT_GT(assigned[s], 0) << "slot "
                              << vm::ThreadedCode::slotName(
                                     static_cast<Slot>(s))
                              << " is never assigned";
  }
}

}  // namespace
}  // namespace onebit
