#include "scopes.hh"

#include <cstddef>

namespace archytas::analyzer {

namespace {

const std::size_t kNpos = static_cast<std::size_t>(-1);

bool
isIdent(const Token &t)
{
    return t.kind == TokenKind::Identifier;
}

/** Index of the matching closer for the opener at `i`, or kNpos. */
std::size_t
matchPair(const std::vector<Token> &t, std::size_t i, const char *open,
          const char *close)
{
    std::size_t depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (t[j].is(open))
            ++depth;
        else if (t[j].is(close)) {
            if (--depth == 0)
                return j;
        }
    }
    return kNpos;
}

/**
 * Matches a template argument list starting at the '<' at `i`; returns
 * the index just past the closing '>', or kNpos when this '<' is not a
 * template introducer (statement terminator reached first). Handles '>>'
 * closing two levels at once.
 */
std::size_t
matchAngles(const std::vector<Token> &t, std::size_t i)
{
    long depth = 0;
    for (std::size_t j = i; j < t.size() && j < i + 200; ++j) {
        const std::string &x = t[j].text;
        if (x == "<")
            ++depth;
        else if (x == ">")
            --depth;
        else if (x == ">>")
            depth -= 2;
        else if (x == ";" || x == "{" || x == "}")
            return kNpos;
        if (depth <= 0)
            return j + 1;
    }
    return kNpos;
}

bool
lambdaIntroContext(const std::vector<Token> &t, std::size_t i)
{
    if (i == 0)
        return true;
    const Token &p = t[i - 1];
    if (p.kind == TokenKind::Identifier)
        return p.is("return") || p.is("co_return");
    static const char *const ok[] = {"(", ",", "=",  "{", ";", "&&",
                                     "||", "?", ":", "<<", nullptr};
    for (const char *const *q = ok; *q; ++q)
        if (p.is(*q))
            return true;
    return false;
}

/**
 * From the token after a lambda's capture list (and parameter list, when
 * present), finds the '{' opening its body, skipping specifiers and a
 * trailing return type. Returns kNpos when no body appears nearby.
 */
std::size_t
findLambdaBodyBrace(const std::vector<Token> &t, std::size_t j)
{
    for (std::size_t steps = 0; j < t.size() && steps < 40; ++steps) {
        const std::string &x = t[j].text;
        if (x == "{")
            return j;
        if (x == ";" || x == ")" || x == "]" || x == "=")
            return kNpos;
        if (x == "<") {
            const std::size_t after = matchAngles(t, j);
            if (after == kNpos)
                return kNpos;
            j = after;
            continue;
        }
        ++j;
    }
    return kNpos;
}

/** Extracts the declared-variable name after a container/atomic type. */
std::string
declaredName(const std::vector<Token> &t, std::size_t type_idx)
{
    std::size_t j = type_idx + 1;
    if (j < t.size() && t[j].is("<")) {
        const std::size_t after = matchAngles(t, j);
        if (after == kNpos)
            return "";
        j = after;
    }
    while (j < t.size() &&
           (t[j].is("&") || t[j].is("*") || t[j].ident("const")))
        ++j;
    if (j < t.size() && isIdent(t[j]))
        return t[j].text;
    return "";
}

bool
isPoolEntryPoint(const std::string &name)
{
    return name == "parallelFor" || name == "runTasks";
}

} // namespace

ScopeInfo
buildScopes(const LexedSource &lex)
{
    const std::vector<Token> &t = lex.tokens;
    ScopeInfo out;

    // Pass 1: lambdas (with optional `auto name = [...]` binding).
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!t[i].is("[") || !lambdaIntroContext(t, i))
            continue;
        const std::size_t close = matchPair(t, i, "[", "]");
        if (close == kNpos)
            continue;
        std::size_t j = close + 1;
        if (j < t.size() && t[j].is("(")) {
            const std::size_t pclose = matchPair(t, j, "(", ")");
            if (pclose == kNpos)
                continue;
            j = pclose + 1;
        }
        const std::size_t brace = findLambdaBodyBrace(t, j);
        if (brace == kNpos)
            continue;
        const std::size_t bclose = matchPair(t, brace, "{", "}");
        if (bclose == kNpos)
            continue;
        LambdaInfo lam;
        lam.intro = i;
        lam.body = {brace + 1, bclose};
        if (i >= 2 && t[i - 1].is("=") && isIdent(t[i - 2])) {
            for (std::size_t back = 3; back <= 5 && back <= i; ++back) {
                if (t[i - back].ident("auto")) {
                    lam.name = t[i - 2].text;
                    break;
                }
            }
        }
        out.lambdas.push_back(lam);
    }

    // Pass 2: mark lambdas handed to the deterministic pool as hot,
    // whether written inline or bound to a name first.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (!isIdent(t[i]) || !isPoolEntryPoint(t[i].text) ||
            !t[i + 1].is("("))
            continue;
        const std::size_t close = matchPair(t, i + 1, "(", ")");
        if (close == kNpos)
            continue;
        for (LambdaInfo &lam : out.lambdas)
            if (lam.intro > i + 1 && lam.intro < close)
                lam.hot = true;
        for (std::size_t k = i + 2; k < close; ++k) {
            if (!isIdent(t[k]))
                continue;
            for (LambdaInfo &lam : out.lambdas)
                if (!lam.name.empty() && lam.name == t[k].text)
                    lam.hot = true;
        }
    }

    // Pass 3: std::unordered_* and std::atomic declarations.
    for (std::size_t i = 2; i < t.size(); ++i) {
        if (!isIdent(t[i]) || !t[i - 1].is("::") ||
            !t[i - 2].ident("std"))
            continue;
        const std::string &name = t[i].text;
        const bool unordered = name == "unordered_map" ||
                               name == "unordered_set" ||
                               name == "unordered_multimap" ||
                               name == "unordered_multiset";
        const bool atomic = name == "atomic";
        if (!unordered && !atomic)
            continue;
        VarDecl d;
        d.type = name;
        d.line = t[i].line;
        d.name = declaredName(t, i);
        (unordered ? out.unordered_decls : out.atomic_decls)
            .push_back(std::move(d));
    }

    // Pass 4: range-for statements.
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!t[i].ident("for") || !t[i + 1].is("("))
            continue;
        const std::size_t close = matchPair(t, i + 1, "(", ")");
        if (close == kNpos)
            continue;
        std::size_t colon = kNpos;
        std::size_t depth = 0;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (t[j].is("(") || t[j].is("[") || t[j].is("{"))
                ++depth;
            else if (t[j].is(")") || t[j].is("]") || t[j].is("}"))
                --depth;
            else if (t[j].is(":") && depth == 0) {
                colon = j;
                break;
            } else if (t[j].is(";"))
                break; // classic for loop
        }
        if (colon == kNpos)
            continue;
        RangeFor rf;
        rf.line = t[i].line;
        for (std::size_t j = colon + 1; j < close; ++j)
            if (isIdent(t[j]) && !t[j].ident("std") &&
                !t[j].ident("const")) {
                rf.base_ident = t[j].text;
                break;
            }
        out.range_fors.push_back(std::move(rf));
    }

    // Pass 5: function definitions and declarations. A lightweight
    // brace classifier keeps detection at namespace/class scope only.
    enum class Brace { Namespace, NamespaceAnon, Class, Other };
    std::vector<Brace> stack;
    std::size_t anon_ns_depth = 0;
    bool pending_ns = false;
    bool pending_ns_anon = false;
    bool pending_class = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token &tok = t[i];
        if (tok.ident("namespace")) {
            pending_ns = true;
            pending_ns_anon = !(i + 1 < t.size() && isIdent(t[i + 1]));
            continue;
        }
        if (tok.ident("class") || tok.ident("struct") ||
            tok.ident("union") || tok.ident("enum")) {
            pending_class = true;
            continue;
        }
        if (tok.is(";"))
            pending_class = false; // forward declaration
        if (tok.is("{")) {
            if (pending_ns) {
                stack.push_back(pending_ns_anon ? Brace::NamespaceAnon
                                                : Brace::Namespace);
                if (pending_ns_anon)
                    ++anon_ns_depth;
                pending_ns = false;
            } else if (pending_class) {
                stack.push_back(Brace::Class);
                pending_class = false;
            } else {
                stack.push_back(Brace::Other);
            }
            continue;
        }
        if (tok.is("}")) {
            if (!stack.empty()) {
                if (stack.back() == Brace::NamespaceAnon &&
                    anon_ns_depth > 0)
                    --anon_ns_depth;
                stack.pop_back();
            }
            continue;
        }

        const bool at_decl_scope =
            stack.empty() || stack.back() == Brace::Namespace ||
            stack.back() == Brace::NamespaceAnon ||
            stack.back() == Brace::Class;
        if (!at_decl_scope || !isIdent(tok) || i + 1 >= t.size() ||
            !t[i + 1].is("("))
            continue;
        static const char *const kNotFunctions[] = {
            "if", "for", "while", "switch", "return", "catch", "sizeof",
            "alignof", "new", "delete", "operator", "static_assert",
            "decltype", "defined", "assert", nullptr};
        bool skip = false;
        for (const char *const *q = kNotFunctions; *q; ++q)
            if (tok.is(*q))
                skip = true;
        if (skip)
            continue;
        // The name must follow something type-like; rules out calls in
        // brace-initializers and macro invocations at class scope.
        if (i == 0)
            continue;
        const Token &prev = t[i - 1];
        const bool type_ish =
            (prev.kind == TokenKind::Identifier && !prev.is("return")) ||
            prev.is("&") || prev.is("*") || prev.is(">") ||
            prev.is(">>") || prev.is("::") || prev.is("]");
        if (!type_ish)
            continue;
        const std::size_t pclose = matchPair(t, i + 1, "(", ")");
        if (pclose == kNpos)
            continue;
        // Walk the trailer to the body brace, declaration semicolon, or
        // something that disqualifies the candidate.
        std::size_t j = pclose + 1;
        bool is_def = false;
        bool is_decl = false;
        for (std::size_t steps = 0; j < t.size() && steps < 40;
             ++steps) {
            const std::string &x = t[j].text;
            if (x == "{") {
                is_def = true;
                break;
            }
            if (x == ";") {
                is_decl = true;
                break;
            }
            if (x == ":") { // constructor initializer list
                ++j;
                std::size_t guard = 0;
                while (j < t.size() && ++guard < 400) {
                    // member name (possibly qualified/templated)
                    while (j < t.size() &&
                           (isIdent(t[j]) || t[j].is("::")))
                        ++j;
                    if (j < t.size() && t[j].is("<")) {
                        const std::size_t after = matchAngles(t, j);
                        if (after == kNpos)
                            break;
                        j = after;
                    }
                    if (j >= t.size())
                        break;
                    if (t[j].is("(") || t[j].is("{")) {
                        const std::size_t c =
                            t[j].is("(") ? matchPair(t, j, "(", ")")
                                         : matchPair(t, j, "{", "}");
                        if (c == kNpos)
                            break;
                        j = c + 1;
                    }
                    if (j < t.size() && t[j].is(",")) {
                        ++j;
                        continue;
                    }
                    break;
                }
                continue; // expect '{' next iteration
            }
            if (x == "=") {
                // `= default` / `= delete` / pure virtual: declaration.
                is_decl = true;
                break;
            }
            if (x == "<") {
                const std::size_t after = matchAngles(t, j);
                if (after == kNpos)
                    break;
                j = after;
                continue;
            }
            if (isIdent(t[j]) || t[j].is("&") || t[j].is("*") ||
                t[j].is("->") || t[j].is("::") || t[j].is("[") ||
                t[j].is("]") || t[j].is(")") || t[j].is(",")) {
                ++j;
                continue;
            }
            break;
        }
        if (!is_def && !is_decl)
            continue;

        FunctionDef fn;
        fn.name = tok.text;
        fn.line = tok.line;
        fn.params = {i + 2, pclose};
        fn.is_declaration = is_decl;
        fn.in_anon_namespace = anon_ns_depth > 0;
        // Statement prefix: walk back to the previous boundary.
        std::size_t pb = i;
        for (std::size_t back = 0; pb > 0 && back < 16; ++back) {
            const std::string &x = t[pb - 1].text;
            if (x == ";" || x == "{" || x == "}" || x == ":")
                break;
            --pb;
        }
        fn.prefix = {pb, i};
        if (is_def) {
            const std::size_t bclose = matchPair(t, j, "{", "}");
            if (bclose == kNpos)
                continue;
            fn.body = {j + 1, bclose};
            out.functions.push_back(std::move(fn));
            i = bclose; // skip the body: no nested "functions"
        } else {
            out.functions.push_back(std::move(fn));
            i = j;
        }
    }

    return out;
}

} // namespace archytas::analyzer
