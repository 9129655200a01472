// Semantic analysis for MiniC.
//
// Resolves identifiers, checks types, inserts implicit casts, assigns local
// slots and verifies structural rules (lvalues, break/continue placement,
// return types, call signatures, parameter limits). Annotates the AST in
// place. Throws CompileError on the first violation.
#pragma once

#include "ir/instr.hpp"
#include "lang/ast.hpp"

namespace onebit::lang {

/// Maximum parameters per function: a call's operands, which ir::verify
/// bounds.
inline constexpr std::size_t kMaxParams = ir::kMaxOperands;

void analyze(Program& prog);

/// Resolve a builtin by name (Builtin::None when not a builtin).
Builtin builtinByName(std::string_view name) noexcept;

/// Signature info for a builtin.
struct BuiltinSig {
  MType returnType = MType::Void;
  std::vector<MType> params;  ///< empty entry list for print_s (special)
};
BuiltinSig builtinSig(Builtin b);

}  // namespace onebit::lang
