/**
 * @file
 * Lightweight scope and declaration tracking over the token stream: no
 * full C++ parse, just the structure the checkers need — lambda bodies
 * (and which of them are passed to the deterministic pool), function
 * definitions with parameter and body token ranges, declarations of
 * hash-ordered containers and atomics, and range-for statements.
 */

#ifndef ARCHYTAS_TOOLS_ANALYZER_SCOPES_HH
#define ARCHYTAS_TOOLS_ANALYZER_SCOPES_HH

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hh"

namespace archytas::analyzer {

/** Half-open token-index range [begin, end). */
struct TokenRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool contains(std::size_t idx) const
    {
        return idx >= begin && idx < end;
    }
};

struct LambdaInfo {
    std::size_t intro = 0; // index of the '[' token
    TokenRange body;       // inside the braces, braces excluded
    std::string name;      // "" unless bound as `auto name = [...]`
    bool hot = false;      // passed to parallelFor/runTasks
};

struct FunctionDef {
    std::string name;
    std::size_t line = 0;
    TokenRange params; // inside the parens
    TokenRange body;   // inside the braces ({0,0} for declarations)
    bool is_declaration = false; // prototype ending in ';'
    bool in_anon_namespace = false;
    /** Tokens of the statement prefix (return type, attributes). */
    TokenRange prefix;
};

struct VarDecl {
    std::string name; // may be "" when extraction failed
    std::string type; // "unordered_map", "unordered_set", "atomic", ...
    std::size_t line = 0;
};

struct RangeFor {
    std::size_t line = 0;
    std::string base_ident; // first identifier of the range expression
};

struct ScopeInfo {
    std::vector<LambdaInfo> lambdas;
    std::vector<FunctionDef> functions;
    std::vector<VarDecl> unordered_decls;
    std::vector<VarDecl> atomic_decls;
    std::vector<RangeFor> range_fors;
};

/** Builds the scope info for one lexed file. */
ScopeInfo buildScopes(const LexedSource &lex);

} // namespace archytas::analyzer

#endif // ARCHYTAS_TOOLS_ANALYZER_SCOPES_HH
