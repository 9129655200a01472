// Unit tests for the MiniC front end: lexer, parser, sema diagnostics.
#include <gtest/gtest.h>

#include "lang/compile.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/sema.hpp"

namespace onebit::lang {
namespace {

// --- lexer -------------------------------------------------------------------

TEST(Lexer, Keywords) {
  const auto toks = lex("int double char void if else while for return break continue");
  ASSERT_EQ(toks.size(), 12u);  // + End
  EXPECT_EQ(toks[0].kind, Tok::KwInt);
  EXPECT_EQ(toks[1].kind, Tok::KwDouble);
  EXPECT_EQ(toks[2].kind, Tok::KwChar);
  EXPECT_EQ(toks[3].kind, Tok::KwVoid);
  EXPECT_EQ(toks[10].kind, Tok::KwContinue);
  EXPECT_EQ(toks[11].kind, Tok::End);
}

TEST(Lexer, IdentifiersAndLiterals) {
  const auto toks = lex("foo _bar x1 42 0x1F 3.5 1e3 2.5e-2 'a' '\\n' \"hi\\t\"");
  EXPECT_EQ(toks[0].kind, Tok::Ident);
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[3].kind, Tok::IntLit);
  EXPECT_EQ(toks[3].intValue, 42);
  EXPECT_EQ(toks[4].intValue, 0x1F);
  EXPECT_EQ(toks[5].kind, Tok::FloatLit);
  EXPECT_DOUBLE_EQ(toks[5].floatValue, 3.5);
  EXPECT_DOUBLE_EQ(toks[6].floatValue, 1000.0);
  EXPECT_DOUBLE_EQ(toks[7].floatValue, 0.025);
  EXPECT_EQ(toks[8].kind, Tok::CharLit);
  EXPECT_EQ(toks[8].intValue, 'a');
  EXPECT_EQ(toks[9].intValue, '\n');
  EXPECT_EQ(toks[10].kind, Tok::StrLit);
  EXPECT_EQ(toks[10].strValue, "hi\t");
}

TEST(Lexer, Operators) {
  const auto toks =
      lex("+ - * / % & | ^ ~ << >> && || ! < <= > >= == != = += <<= >>= ++ -- ? :");
  EXPECT_EQ(toks[0].kind, Tok::Plus);
  EXPECT_EQ(toks[9].kind, Tok::Shl);
  EXPECT_EQ(toks[10].kind, Tok::Shr);
  EXPECT_EQ(toks[11].kind, Tok::AmpAmp);
  EXPECT_EQ(toks[12].kind, Tok::PipePipe);
  EXPECT_EQ(toks[20].kind, Tok::Assign);
  EXPECT_EQ(toks[21].kind, Tok::PlusEq);
  EXPECT_EQ(toks[22].kind, Tok::ShlEq);
  EXPECT_EQ(toks[23].kind, Tok::ShrEq);
  EXPECT_EQ(toks[24].kind, Tok::PlusPlus);
  EXPECT_EQ(toks[25].kind, Tok::MinusMinus);
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("a // line comment\n b /* block\n comment */ c");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = lex("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].col, 3);
}

TEST(Lexer, ErrorsOnBadInput) {
  EXPECT_THROW(lex("int $x;"), CompileError);
  EXPECT_THROW(lex("\"unterminated"), CompileError);
  EXPECT_THROW(lex("'a"), CompileError);
  EXPECT_THROW(lex("/* unterminated"), CompileError);
  EXPECT_THROW(lex("'\\q'"), CompileError);
  EXPECT_THROW(lex("0x"), CompileError);
}

TEST(Lexer, IntegerLiteralsMustFitIn64Bits) {
  // The largest 64-bit patterns keep wrapping to -1 ...
  const auto toks = lex("18446744073709551615 0xFFFFFFFFFFFFFFFF");
  EXPECT_EQ(toks[0].intValue, -1);
  EXPECT_EQ(toks[1].intValue, -1);
  // ... one past them is an error at the literal, not a saturated -1.
  for (const char* src : {"int x = 18446744073709551616;",
                          "int x = 99999999999999999999;",
                          "int x = 0x1FFFFFFFFFFFFFFFF;"}) {
    try {
      lex(src);
      ADD_FAILURE() << src << " lexed";
    } catch (const CompileError& e) {
      EXPECT_EQ(e.line, 1) << src;
      EXPECT_EQ(e.col, 9) << src;
    }
  }
  EXPECT_THROW(
      compileMiniC("int main() { print_i(99999999999999999999); return 0; }"),
      CompileError);
  EXPECT_THROW(
      compileMiniC("int main() { print_i(0x1FFFFFFFFFFFFFFFF); return 0; }"),
      CompileError);
}

// --- parser -------------------------------------------------------------------

TEST(Parser, FunctionAndGlobalStructure) {
  const Program p = parse(R"(
    int g = 5;
    double arr[3] = {1.0, 2.0, 3.0};
    char msg[] = "hey";
    int add(int a, int b) { return a + b; }
    void main() { }
  )");
  ASSERT_EQ(p.globals.size(), 3u);
  EXPECT_EQ(p.globals[0].name, "g");
  EXPECT_EQ(p.globals[1].arraySize, 3);
  EXPECT_TRUE(p.globals[2].hasStrInit);
  EXPECT_EQ(p.globals[2].arraySize, 4);  // "hey" + NUL
  ASSERT_EQ(p.funcs.size(), 2u);
  EXPECT_EQ(p.funcs[0].name, "add");
  ASSERT_EQ(p.funcs[0].params.size(), 2u);
}

TEST(Parser, ArrayParameterDecaysToPointer) {
  const Program p = parse("int f(int a[], double d[]) { return 0; } void main() {}");
  EXPECT_EQ(p.funcs[0].params[0].type, MType::PtrInt);
  EXPECT_EQ(p.funcs[0].params[1].type, MType::PtrDouble);
}

TEST(Parser, PrecedenceShapesTree) {
  // 1 + 2 * 3 must parse as 1 + (2 * 3)
  const Program p = parse("int main() { return 1 + 2 * 3; }");
  const Stmt& ret = *p.funcs[0].body->body[0];
  ASSERT_EQ(ret.kind, StmtKind::Return);
  const Expr& e = *ret.cond;
  ASSERT_EQ(e.kind, ExprKind::Binary);
  EXPECT_EQ(e.op, Tok::Plus);
  EXPECT_EQ(e.rhs->op, Tok::Star);
}

TEST(Parser, TernaryIsRightAssociative) {
  EXPECT_NO_THROW(parse("int main() { return 1 ? 2 : 3 ? 4 : 5; }"));
}

TEST(Parser, ForWithAllClausesOptional) {
  EXPECT_NO_THROW(parse("void main() { for (;;) { break; } }"));
  EXPECT_NO_THROW(parse("void main() { for (int i = 0; i < 3; i++) {} }"));
}

TEST(Parser, SyntaxErrors) {
  EXPECT_THROW(parse("int main() { return 1 }"), CompileError);   // missing ;
  EXPECT_THROW(parse("int main( { }"), CompileError);
  EXPECT_THROW(parse("int main() { if 1 {} }"), CompileError);
  EXPECT_THROW(parse("int main() { int a[; }"), CompileError);
  EXPECT_THROW(parse("int 5x;"), CompileError);
  EXPECT_THROW(parse("void* p;"), CompileError);
  EXPECT_THROW(parse("int main() {"), CompileError);  // unterminated block
}

// --- sema ----------------------------------------------------------------------

void expectSemaError(const char* src) {
  EXPECT_THROW(compileMiniC(src), CompileError) << src;
}

TEST(Sema, RequiresMain) {
  expectSemaError("int f() { return 0; }");
}

TEST(Sema, MainSignatureChecked) {
  expectSemaError("int main(int x) { return 0; }");
  expectSemaError("double main() { return 0.0; }");
}

TEST(Sema, UndeclaredIdentifier) {
  expectSemaError("int main() { return x; }");
}

TEST(Sema, UndeclaredFunction) {
  expectSemaError("int main() { return f(); }");
}

TEST(Sema, DuplicateSymbols) {
  expectSemaError("int g; int g; int main() { return 0; }");
  expectSemaError("int f() { return 0; } int f() { return 1; } int main() { return 0; }");
  expectSemaError("int main() { int a = 1; int a = 2; return a; }");
  expectSemaError("int f(int a, int a) { return 0; } int main() { return 0; }");
}

TEST(Sema, ShadowingInInnerScopeIsAllowed) {
  EXPECT_NO_THROW(compileMiniC(
      "int main() { int a = 1; { int a = 2; a++; } return a; }"));
}

TEST(Sema, BuiltinNamesAreReserved) {
  expectSemaError("int sqrt; int main() { return 0; }");
  expectSemaError("int print_i() { return 0; } int main() { return 0; }");
}

TEST(Sema, BreakContinueOutsideLoop) {
  expectSemaError("int main() { break; return 0; }");
  expectSemaError("int main() { continue; return 0; }");
}

TEST(Sema, ArrayIsNotAssignable) {
  expectSemaError("int a[3]; int main() { a = 0; return 0; }");
  expectSemaError("int main() { int a[3]; a = 0; return 0; }");
}

TEST(Sema, IndexingNonArrayFails) {
  expectSemaError("int main() { int x = 0; return x[0]; }");
}

TEST(Sema, VoidVariableFails) {
  expectSemaError("int main() { void v; return 0; }");
}

TEST(Sema, ZeroLengthArrayFails) {
  expectSemaError("int a[0]; int main() { return 0; }");
}

TEST(Sema, WrongArgumentCount) {
  expectSemaError(
      "int f(int a) { return a; } int main() { return f(); }");
  expectSemaError(
      "int f(int a) { return a; } int main() { return f(1, 2); }");
  expectSemaError("int main() { return sqrt(1.0, 2.0); }");
}

TEST(Sema, PointerArgumentTypeMismatch) {
  expectSemaError(
      "double d[4]; int f(int a[]) { return a[0]; } "
      "int main() { return f(d); }");
}

TEST(Sema, PointerAssignmentTypeMismatch) {
  expectSemaError(
      "double d[4]; int main() { int* p = 0; return 0; }");  // int to ptr
}

TEST(Sema, ReturnTypeChecked) {
  expectSemaError("void f() { return 1; } int main() { return 0; }");
  expectSemaError("int f() { return; } int main() { return 0; }");
}

TEST(Sema, IntegerOperatorsRejectDoubles) {
  expectSemaError("int main() { return 1.5 % 2; }");
  expectSemaError("int main() { return 1.5 << 1; }");
  expectSemaError("int main() { double d = 1.0; return ~d; }");
}

TEST(Sema, PrintSRequiresStringLiteral) {
  expectSemaError("int main() { print_s(42); return 0; }");
  expectSemaError("int main() { char c = 'x'; print_s(c); return 0; }");
}

TEST(Sema, StringLiteralOnlyInPrintS) {
  expectSemaError("int main() { int x = \"nope\"; return 0; }");
}

TEST(Sema, GlobalInitializerMustBeConstant) {
  expectSemaError("int g = f(); int f() { return 1; } int main() { return 0; }");
  expectSemaError("int a = 1; int b = a; int main() { return 0; }");
}

TEST(Sema, GlobalInitializerCountChecked) {
  expectSemaError("int a[2] = {1, 2, 3}; int main() { return 0; }");
}

TEST(Sema, StringInitRequiresCharArray) {
  expectSemaError("int a[4] = \"abc\"; int main() { return 0; }");
}

TEST(Sema, TooManyParameters) {
  expectSemaError(
      "int f(int a, int b, int c, int d, int e, int g, int h, int i, int j) "
      "{ return 0; } int main() { return 0; }");
}

TEST(Sema, BuiltinLookup) {
  EXPECT_EQ(builtinByName("sqrt"), Builtin::Sqrt);
  EXPECT_EQ(builtinByName("print_i"), Builtin::PrintI);
  EXPECT_EQ(builtinByName("nope"), Builtin::None);
  EXPECT_EQ(builtinSig(Builtin::Pow).params.size(), 2u);
  EXPECT_EQ(builtinSig(Builtin::AllocInt).returnType, MType::PtrInt);
}

TEST(Sema, MTypeHelpers) {
  EXPECT_TRUE(isPtr(MType::PtrChar));
  EXPECT_FALSE(isPtr(MType::Char));
  EXPECT_EQ(pointee(MType::PtrDouble), MType::Double);
  EXPECT_EQ(ptrTo(MType::Int), MType::PtrInt);
  EXPECT_EQ(memWidth(MType::Char), 1u);
  EXPECT_EQ(memWidth(MType::Int), 8u);
  EXPECT_EQ(mtypeName(MType::PtrInt), "int*");
}

}  // namespace
}  // namespace onebit::lang
