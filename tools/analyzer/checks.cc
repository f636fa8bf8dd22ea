#include "checks.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

namespace archytas::analyzer {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
inSrc(const SourceFile &f)
{
    return startsWith(f.path, "src/");
}

bool
isRngSink(const SourceFile &f)
{
    return startsWith(f.path, "src/common/rng");
}

bool
isTelemetrySink(const SourceFile &f)
{
    return startsWith(f.path, "src/common/telemetry");
}

bool
isPoolImpl(const SourceFile &f)
{
    return startsWith(f.path, "src/common/parallel");
}

bool
isLoggingSink(const SourceFile &f)
{
    return startsWith(f.path, "src/common/logging");
}

void
add(std::vector<Finding> &findings, const SourceFile &f,
    const std::string &rule, std::size_t line, std::size_t col,
    std::string message, Severity sev = Severity::Error,
    std::string key = "")
{
    Finding x;
    x.rule = rule;
    x.file = f.path;
    x.line = line;
    x.col = col;
    x.message = std::move(message);
    x.severity = sev;
    x.fingerprint = rule + "|" + f.path + "|" +
                    (key.empty() ? f.normalizedLine(line)
                                 : std::move(key));
    findings.push_back(std::move(x));
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    if (a.size() > 64 || b.size() > 64)
        return 64;
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

// ---------------------------------------------------------------------
// determinism-*: unordered containers, unseeded randomness, wall-clock
// reads, atomic read-modify-write inside pool lambdas.
// ---------------------------------------------------------------------

void
checkDeterminism(const AnalysisContext &ctx, const SourceFile &f,
                 std::vector<Finding> &findings)
{
    const std::vector<Token> &t = f.lex.tokens;

    if (inSrc(f)) {
        for (const VarDecl &d : f.scopes.unordered_decls)
            add(findings, f, "determinism-unordered", d.line, 1,
                "std::" + d.type +
                    (d.name.empty() ? "" : " `" + d.name + "`") +
                    " is hash-ordered: iteration and export order can "
                    "differ across platforms and runs; use "
                    "std::map/std::set or a sorted snapshot, or waive "
                    "with proof that order cannot reach results");
        for (const RangeFor &rf : f.scopes.range_fors)
            if (!rf.base_ident.empty() &&
                ctx.unordered_names.count(rf.base_ident))
                add(findings, f, "determinism-unordered", rf.line, 1,
                    "iteration over hash-ordered container `" +
                        rf.base_ident +
                        "`: visit order is bucket order and can reach "
                        "results or exports",
                    Severity::Error, "iter:" + rf.base_ident);
    }

    if (!isRngSink(f)) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokenKind::Identifier)
                continue;
            const std::string &x = t[i].text;
            if (x == "rand" || x == "srand" || x == "random_shuffle" ||
                x == "random_device") {
                // Require a call or std:: qualification so identifiers
                // merely containing these names don't trip the rule.
                const bool qualified = i >= 1 && t[i - 1].is("::");
                const bool member_access =
                    i >= 1 && (t[i - 1].is(".") || t[i - 1].is("->"));
                const bool called =
                    i + 1 < t.size() &&
                    (t[i + 1].is("(") || t[i + 1].is("{"));
                if (!member_access && (qualified || called))
                    add(findings, f, "determinism-random", t[i].line,
                        t[i].col,
                        "`" + x +
                            "` is unseeded/global randomness; draw "
                            "from an explicitly seeded archytas::Rng "
                            "(common/rng.hh) so runs are reproducible");
            }
        }
    }

    if (!isTelemetrySink(f)) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokenKind::Identifier)
                continue;
            const std::string &x = t[i].text;
            const bool member_access =
                i >= 1 && (t[i - 1].is(".") || t[i - 1].is("->"));
            if (member_access)
                continue;
            if (x == "system_clock" || x == "gettimeofday" ||
                x == "localtime" || x == "gmtime") {
                add(findings, f, "determinism-wall-clock", t[i].line,
                    t[i].col,
                    "`" + x +
                        "` reads the wall clock; results and exports "
                        "must not depend on when a run happens (use "
                        "explicit timestamps from the dataset, or "
                        "steady_clock strictly for telemetry timing)");
            } else if (x == "time" && i + 1 < t.size() &&
                       t[i + 1].is("(")) {
                const Token &arg = t[i + 2 < t.size() ? i + 2 : i + 1];
                if (arg.is(")") || arg.ident("NULL") ||
                    arg.ident("nullptr") || arg.is("0"))
                    add(findings, f, "determinism-wall-clock",
                        t[i].line, t[i].col,
                        "`time(...)` wall-clock read/seed; use an "
                        "explicitly seeded archytas::Rng or dataset "
                        "timestamps");
            }
        }
    }

    if (!isPoolImpl(f) && !isTelemetrySink(f)) {
        static const char *const kRmw[] = {
            "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
            "fetch_xor", "exchange", "compare_exchange_weak",
            "compare_exchange_strong", nullptr};
        for (const LambdaInfo &lam : f.scopes.lambdas) {
            if (!lam.hot)
                continue;
            for (std::size_t i = lam.body.begin; i < lam.body.end;
                 ++i) {
                if (t[i].kind != TokenKind::Identifier)
                    continue;
                const bool member =
                    i >= 1 && (t[i - 1].is(".") || t[i - 1].is("->"));
                bool rmw_name = false;
                for (const char *const *q = kRmw; *q; ++q)
                    if (t[i].is(*q))
                        rmw_name = true;
                if (member && rmw_name) {
                    add(findings, f, "determinism-atomic-rmw",
                        t[i].line, t[i].col,
                        "atomic read-modify-write (`" + t[i].text +
                            "`) inside a lambda handed to the "
                            "deterministic pool: cross-task "
                            "accumulation order would depend on the "
                            "schedule; accumulate per-task and merge "
                            "in fixed order instead");
                    continue;
                }
                if (ctx.atomic_names.count(t[i].text) && !member &&
                    i + 1 < t.size()) {
                    static const char *const kOps[] = {
                        "++", "--", "+=", "-=", "|=", "&=", "^=",
                        nullptr};
                    for (const char *const *q = kOps; *q; ++q)
                        if (t[i + 1].is(*q))
                            add(findings, f, "determinism-atomic-rmw",
                                t[i].line, t[i].col,
                                "read-modify-write of atomic `" +
                                    t[i].text +
                                    "` inside a pool lambda: the "
                                    "merge order depends on the "
                                    "schedule; accumulate per-task "
                                    "and merge in fixed order");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// hot-path-alloc: heap allocation in solver kernels, the window's
// assembly and cost loops, and pool lambdas.
// ---------------------------------------------------------------------

void
checkHotPathAlloc(const SourceFile &f, std::vector<Finding> &findings)
{
    // The pool implementation itself owns task bookkeeping allocations.
    if (!inSrc(f) || isPoolImpl(f))
        return;
    const std::vector<Token> &t = f.lex.tokens;

    std::vector<TokenRange> hot;
    // The kernel TUs are hot in their entirety: the portable kernels,
    // the AVX2 backend, and the backend-selection TU they dispatch
    // through.
    if (f.path == "src/linalg/kernels.cc" ||
        f.path == "src/linalg/kernels_avx2.cc" ||
        f.path == "src/linalg/simd.cc")
        hot.push_back({0, t.size()});
    // The window's assembly and cost evaluation run serially once or
    // more per LM iteration of every session, so their bodies are hot
    // too (FunctionDef::name is unqualified: WindowProblem::build).
    if (f.path == "src/slam/window_problem.cc")
        for (const FunctionDef &fn : f.scopes.functions)
            if (!fn.is_declaration &&
                (fn.name == "build" || fn.name == "evaluateCost"))
                hot.push_back(fn.body);
    for (const LambdaInfo &lam : f.scopes.lambdas)
        if (lam.hot)
            hot.push_back(lam.body);
    // Functions taking a common::Arena by reference are per-frame
    // scratch consumers: the arena exists precisely so they do not
    // touch the heap, so their bodies are hot. Arena::allocate /
    // allocateArray are bump-pointer carves, not heap calls, and are
    // deliberately absent from the flagged-name lists below.
    for (const FunctionDef &fn : f.scopes.functions) {
        if (fn.is_declaration || fn.body.end == fn.body.begin)
            continue;
        for (std::size_t i = fn.params.begin; i < fn.params.end; ++i)
            if (t[i].ident("Arena") && i + 1 < fn.params.end &&
                t[i + 1].is("&")) {
                hot.push_back(fn.body);
                break;
            }
    }
    if (hot.empty())
        return;
    const auto inHot = [&](std::size_t idx) {
        for (const TokenRange &r : hot)
            if (r.contains(idx))
                return true;
        return false;
    };

    static const char *const kGrowth[] = {
        "push_back", "emplace_back", "resize",  "reserve",
        "insert",    "emplace",      "assign",  "append", nullptr};
    static const char *const kCAlloc[] = {
        "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
        nullptr};
    // True when the template argument list opening at t[open] closes
    // with a `>` followed by `&` or `&&`: a reference binding, which
    // allocates nothing.
    const auto bindsReference = [&](std::size_t open) {
        int depth = 0;
        for (std::size_t j = open; j + 1 < t.size(); ++j) {
            if (t[j].is("<"))
                ++depth;
            else if (t[j].is(">"))
                --depth;
            else if (t[j].is(">>"))
                depth -= 2;
            else if (t[j].is(";") || t[j].is("{"))
                return false;
            if (depth <= 0)
                return t[j + 1].is("&") || t[j + 1].is("&&");
        }
        return false;
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!inHot(i) || t[i].kind != TokenKind::Identifier)
            continue;
        const std::string &x = t[i].text;
        const bool member =
            i >= 1 && (t[i - 1].is(".") || t[i - 1].is("->"));
        const bool called = i + 1 < t.size() && t[i + 1].is("(");

        if (x == "new" && (i == 0 || !t[i - 1].is("operator"))) {
            add(findings, f, "hot-path-alloc", t[i].line, t[i].col,
                "heap allocation (`new`) on a hot path; preallocate "
                "outside the kernel/lambda and reuse storage");
            continue;
        }
        if (called && !member)
            for (const char *const *q = kCAlloc; *q; ++q)
                if (x == *q)
                    add(findings, f, "hot-path-alloc", t[i].line,
                        t[i].col,
                        "C allocation (`" + x +
                            "`) on a hot path; preallocate outside "
                            "the kernel/lambda");
        if (member && called)
            for (const char *const *q = kGrowth; *q; ++q)
                if (x == *q)
                    add(findings, f, "hot-path-alloc", t[i].line,
                        t[i].col,
                        "container growth (`." + x +
                            "()`) on a hot path can reallocate; "
                            "size the container before entering the "
                            "kernel/lambda");
        if ((x == "Matrix" || x == "Vector") && called && !member &&
            (i == 0 || !t[i - 1].is("new"))) {
            add(findings, f, "hot-path-alloc", t[i].line, t[i].col,
                "constructs a " + x +
                    " temporary (heap-backed) on a hot path; use the "
                    "destination-passing kernels "
                    "(linalg/kernels.hh) and reuse storage");
        }
        if (x == "vector" && i >= 2 && t[i - 1].is("::") &&
            t[i - 2].ident("std") && i + 1 < t.size() &&
            t[i + 1].is("<") && !bindsReference(i + 1)) {
            add(findings, f, "hot-path-alloc", t[i].line, t[i].col,
                "local std::vector on a hot path allocates; hoist the "
                "buffer out of the kernel/lambda");
        }
    }
}

// ---------------------------------------------------------------------
// layering: the module include DAG.
// ---------------------------------------------------------------------

void
checkLayering(const SourceFile &f, std::vector<Finding> &findings)
{
    if (!inSrc(f) || f.module.empty())
        return;
    const int own = moduleRank(f.module);
    if (own < 0)
        return;
    for (const IncludeDirective &inc : f.lex.includes) {
        if (inc.angled)
            continue;
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos)
            continue;
        const std::string target = inc.path.substr(0, slash);
        const int rank = moduleRank(target);
        if (rank < 0 || target == f.module || rank < own)
            continue;
        const char *kind = rank == own ? "a lateral" : "an upward";
        add(findings, f, "layering", inc.line, 1,
            std::string("include of \"") + inc.path + "\" is " +
                kind + " dependency from module '" + f.module +
                "' (rank " + std::to_string(own) + ") on '" + target +
                "' (rank " + std::to_string(rank) +
                "); the module DAG is common <- linalg <- "
                "{hw, mdfg, dataset} <- {slam, baseline} <- "
                "{synth, runtime} <- service",
            Severity::Error, "include:" + inc.path);
    }
}

// ---------------------------------------------------------------------
// global-state: mutable static/thread_local variables in src/. Every
// estimator, solver, and session must be self-contained so concurrent
// robot sessions (src/service/) stay bit-identical to serial runs; the
// few intentional process-wide singletons carry inline waivers.
// ---------------------------------------------------------------------

void
checkGlobalState(const SourceFile &f, std::vector<Finding> &findings)
{
    if (!inSrc(f))
        return;
    const std::vector<Token> &t = f.lex.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const bool is_static = t[i].ident("static");
        if (!is_static && !t[i].ident("thread_local"))
            continue;
        // `static thread_local` reports once, at the first keyword.
        if (i > 0 && (t[i - 1].ident("static") ||
                      t[i - 1].ident("thread_local")))
            continue;
        // Scan the declaration head: reaching `(` first means a
        // function (member declarations included), not a variable;
        // a const/constexpr/constinit qualifier means immutable.
        bool is_variable = false;
        bool is_const = false;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (t[j].ident("const") || t[j].ident("constexpr") ||
                t[j].ident("constinit")) {
                is_const = true;
            } else if (t[j].is("(")) {
                break;
            } else if (t[j].is(";") || t[j].is("=") || t[j].is("{")) {
                is_variable = true;
                break;
            }
        }
        if (!is_variable || is_const)
            continue;
        add(findings, f, "global-state", t[i].line, t[i].col,
            std::string("mutable `") + t[i].text +
                "` variable: process-global state couples concurrent "
                "sessions and breaks the reentrancy contract "
                "(docs/SERVICE.md); move it into the owning object or "
                "session context, or waive the intentional "
                "process-wide singleton with a justification");
    }
}

// ---------------------------------------------------------------------
// Ported scope-sensitive lint rules: naked-new, raw-thread, direct-io,
// nodiscard-status.
// ---------------------------------------------------------------------

void
checkStyle(const SourceFile &f, std::vector<Finding> &findings)
{
    const std::vector<Token> &t = f.lex.tokens;
    const bool io_checked =
        inSrc(f) && !isLoggingSink(f) && !isTelemetrySink(f);

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier)
            continue;
        const std::string &x = t[i].text;
        const Token *prev = i > 0 ? &t[i - 1] : nullptr;
        const Token *next = i + 1 < t.size() ? &t[i + 1] : nullptr;

        if (x == "new" && (!prev || !prev->is("operator")) && next &&
            (next->kind == TokenKind::Identifier || next->is("("))) {
            add(findings, f, "naked-new", t[i].line, t[i].col,
                "naked `new`; use std::make_unique, containers, or "
                "value members");
        }
        if (x == "delete" && prev && !prev->is("=") &&
            !prev->is("operator") && next &&
            (next->kind == TokenKind::Identifier || next->is("(") ||
             next->is("[") || next->is("*"))) {
            add(findings, f, "naked-new", t[i].line, t[i].col,
                "naked `delete`; use RAII ownership");
        }
        if ((x == "thread" || x == "jthread" || x == "async") &&
            prev && prev->is("::") && i >= 2 &&
            t[i - 2].ident("std") && !isPoolImpl(f)) {
            add(findings, f, "raw-thread", t[i].line, t[i].col,
                "raw std::" + x +
                    "; route parallelism through archytas::parallel "
                    "(common/parallel.hh) so disjoint-write tasks "
                    "keep results bit-identical at any thread "
                    "count");
        }
        if (io_checked) {
            if ((x == "cout" || x == "cerr") && prev &&
                prev->is("::") && i >= 2 && t[i - 2].ident("std")) {
                add(findings, f, "direct-io", t[i].line, t[i].col,
                    "direct std::" + x +
                        " output in library code; use "
                        "ARCHYTAS_INFORM/WARN (common/logging.hh) or "
                        "the telemetry registry");
            }
            if ((x == "printf" || x == "fprintf" || x == "puts" ||
                 x == "fputs") &&
                next && next->is("(") &&
                (!prev || (!prev->is(".") && !prev->is("->")))) {
                add(findings, f, "direct-io", t[i].line, t[i].col,
                    "direct `" + x +
                        "` output in library code; use "
                        "ARCHYTAS_INFORM/WARN (common/logging.hh) or "
                        "the telemetry registry");
            }
        }
    }
}

void
checkNodiscard(const SourceFile &f, std::vector<Finding> &findings)
{
    if (!inSrc(f) || !f.is_header)
        return;
    static const char *const kStatusTypes[] = {
        "TransactionStatus", "HostTransaction", "LmReport",
        "SolveSummary", "ControllerDecision", nullptr};
    const std::vector<Token> &t = f.lex.tokens;
    for (const FunctionDef &fn : f.scopes.functions) {
        bool has_nodiscard = false;
        bool returns_status_by_value = false;
        bool type_alias = false;
        for (std::size_t i = fn.prefix.begin; i < fn.prefix.end; ++i) {
            if (t[i].ident("nodiscard"))
                has_nodiscard = true;
            if (t[i].ident("using") || t[i].ident("typedef") ||
                t[i].ident("friend"))
                type_alias = true;
            for (const char *const *q = kStatusTypes; *q; ++q)
                if (t[i].is(*q)) {
                    const bool by_ref =
                        i + 1 < fn.prefix.end &&
                        (t[i + 1].is("&") || t[i + 1].is("*"));
                    if (!by_ref)
                        returns_status_by_value = true;
                }
        }
        if (returns_status_by_value && !has_nodiscard && !type_alias)
            add(findings, f, "nodiscard-status", fn.line, 1,
                "`" + fn.name +
                    "` returns a status-carrying type by value "
                    "without [[nodiscard]]; silently dropping it "
                    "hides a failed transaction or a diverged solve",
                Severity::Error, "fn:" + fn.name);
    }
}

// ---------------------------------------------------------------------
// contract-coverage: dimension contracts on linalg/hw functions that
// take Matrix/Vector parameters, gated per module.
// ---------------------------------------------------------------------

bool
isContractMacro(const std::string &x)
{
    // ARCHYTAS_FATAL counts too: a guarded fatal (user-error) precondition
    // still validates the function's Matrix/Vector inputs.
    return x == "ARCHYTAS_DCHECK" || x == "ARCHYTAS_CHECK_DIM" ||
           x == "ARCHYTAS_CHECK_BOUNDS" || x == "ARCHYTAS_ASSERT" ||
           x == "ARCHYTAS_FATAL";
}

bool
isDimensionedType(const std::string &x)
{
    return x == "Matrix" || x == "Vector" || x == "CompactSMatrix" ||
           x == "CsrMatrix";
}

void
checkContractCoverage(const AnalysisContext &ctx,
                      std::vector<Finding> &findings,
                      std::vector<CoverageRow> &coverage)
{
    std::map<std::string, CoverageRow> rows;
    std::map<std::string, std::vector<std::string>> uncovered;
    for (const SourceFile &f : ctx.files) {
        if (!inSrc(f) || (f.module != "linalg" && f.module != "hw"))
            continue;
        const std::vector<Token> &t = f.lex.tokens;
        for (const FunctionDef &fn : f.scopes.functions) {
            if (fn.is_declaration || fn.in_anon_namespace)
                continue;
            bool dimensioned = false;
            for (std::size_t i = fn.params.begin; i < fn.params.end;
                 ++i)
                if (t[i].kind == TokenKind::Identifier &&
                    isDimensionedType(t[i].text))
                    dimensioned = true;
            if (!dimensioned)
                continue;
            bool covered = false;
            for (std::size_t i = fn.body.begin; i < fn.body.end; ++i)
                if (t[i].kind == TokenKind::Identifier &&
                    isContractMacro(t[i].text))
                    covered = true;
            CoverageRow &row = rows[f.module];
            row.module = f.module;
            ++row.total;
            if (covered) {
                ++row.covered;
            } else {
                uncovered[f.module].push_back(f.path + ":" +
                                              std::to_string(fn.line) +
                                              " " + fn.name);
                Finding note;
                note.rule = "contract-coverage";
                note.file = f.path;
                note.line = fn.line;
                note.col = 1;
                note.severity = Severity::Note;
                note.message =
                    "`" + fn.name +
                    "` takes Matrix/Vector parameters but asserts no "
                    "dimension contract (ARCHYTAS_CHECK_DIM / "
                    "ARCHYTAS_DCHECK)";
                note.fingerprint = "contract-coverage|" + f.path +
                                   "|fn:" + fn.name;
                findings.push_back(std::move(note));
            }
        }
    }
    for (auto &[module, row] : rows) {
        coverage.push_back(row);
        if (row.percent() + 1e-9 < ctx.config.contract_threshold) {
            std::ostringstream msg;
            msg << "module '" << module << "' contract coverage "
                << row.covered << "/" << row.total << " ("
                << static_cast<int>(row.percent())
                << "%) is below the gating threshold ("
                << static_cast<int>(ctx.config.contract_threshold)
                << "%); uncovered:";
            const auto &list = uncovered[module];
            for (std::size_t i = 0; i < list.size() && i < 8; ++i)
                msg << " " << list[i] << ";";
            if (list.size() > 8)
                msg << " ... +" << list.size() - 8 << " more";
            Finding f;
            f.rule = "contract-coverage";
            f.file = "src/" + module;
            f.line = 0;
            f.message = msg.str();
            f.fingerprint =
                "contract-coverage|src/" + module + "|threshold";
            findings.push_back(std::move(f));
        }
    }
}

// ---------------------------------------------------------------------
// telemetry-names: every telemetry string literal matches the schema.
// ---------------------------------------------------------------------

struct SchemaEntry {
    std::string kind;
    std::string name;
    std::string category; // span/instant only
    std::size_t line = 0;
    bool used = false;
};

void
checkTelemetryNames(const AnalysisContext &ctx,
                    std::vector<Finding> &findings)
{
    static const std::map<std::string, std::string> kMacroKind = {
        {"ARCHYTAS_COUNT_ADD", "counter"},
        {"ARCHYTAS_GAUGE_SET", "gauge"},
        {"ARCHYTAS_HIST_RECORD", "hist"},
        {"ARCHYTAS_SPAN", "span"},
        {"ARCHYTAS_INSTANT", "instant"},
    };

    const std::string schema_rel = ctx.config.schema_path;
    const std::string schema_abs = ctx.config.root + "/" + schema_rel;

    std::map<std::pair<std::string, std::string>, SchemaEntry> schema;
    bool schema_present = false;
    {
        std::ifstream in(schema_abs);
        if (in) {
            schema_present = true;
            std::string line;
            std::size_t lineno = 0;
            while (std::getline(in, line)) {
                ++lineno;
                const std::size_t hash = line.find('#');
                if (hash != std::string::npos)
                    line = line.substr(0, hash);
                std::istringstream ls(line);
                std::string kind, a, b;
                if (!(ls >> kind))
                    continue;
                SchemaEntry e;
                e.kind = kind;
                e.line = lineno;
                const auto schema_finding =
                    [&](const std::string &message) {
                        Finding f;
                        f.rule = "telemetry-names";
                        f.file = schema_rel;
                        f.line = lineno;
                        f.message = message;
                        f.fingerprint = "telemetry-names|" +
                                        schema_rel + "|" + message;
                        findings.push_back(std::move(f));
                    };
                if (kind == "span" || kind == "instant") {
                    if (!(ls >> a >> b)) {
                        schema_finding("malformed schema line: `" +
                                       kind +
                                       "` needs <category> <name>");
                        continue;
                    }
                    e.category = a;
                    e.name = b;
                } else if (kind == "counter" || kind == "gauge" ||
                           kind == "hist") {
                    if (!(ls >> a)) {
                        schema_finding("malformed schema line: `" +
                                       kind + "` needs <name>");
                        continue;
                    }
                    e.name = a;
                } else {
                    schema_finding("unknown schema kind `" + kind +
                                   "` (expected counter, gauge, hist, "
                                   "span, or instant)");
                    continue;
                }
                const auto key = std::make_pair(e.kind, e.name);
                if (schema.count(key)) {
                    schema_finding("duplicate schema entry `" + e.kind +
                                   " " + e.name + "`");
                    continue;
                }
                schema.emplace(key, std::move(e));
            }
        }
    }

    bool any_usage = false;
    for (const SourceFile &f : ctx.files) {
        if (!inSrc(f) || isTelemetrySink(f))
            continue;
        const std::vector<Token> &t = f.lex.tokens;
        for (std::size_t i = 0; i + 2 < t.size(); ++i) {
            if (t[i].kind != TokenKind::Identifier)
                continue;
            const auto it = kMacroKind.find(t[i].text);
            if (it == kMacroKind.end() || !t[i + 1].is("("))
                continue;
            any_usage = true;
            const std::string &kind = it->second;
            const bool has_category =
                kind == "span" || kind == "instant";
            const Token *category = nullptr;
            const Token *name = nullptr;
            if (has_category) {
                if (t[i + 2].kind == TokenKind::String &&
                    i + 4 < t.size() && t[i + 3].is(",") &&
                    t[i + 4].kind == TokenKind::String) {
                    category = &t[i + 2];
                    name = &t[i + 4];
                }
            } else if (t[i + 2].kind == TokenKind::String) {
                name = &t[i + 2];
            }
            if (!name) {
                add(findings, f, "telemetry-names", t[i].line,
                    t[i].col,
                    t[i].text +
                        " name is not a string literal; the schema "
                        "check needs literal names (hoist dynamic "
                        "names behind a literal prefix)");
                continue;
            }
            if (!schema_present)
                continue; // reported once below
            const auto key = std::make_pair(kind, name->text);
            const auto entry = schema.find(key);
            if (entry == schema.end()) {
                std::string suggestion;
                std::size_t best = 3;
                for (const auto &[k, e] : schema) {
                    if (k.first != kind)
                        continue;
                    const std::size_t d =
                        editDistance(k.second, name->text);
                    if (d < best) {
                        best = d;
                        suggestion = k.second;
                    }
                }
                add(findings, f, "telemetry-names", name->line,
                    name->col,
                    "unregistered telemetry " + kind + " name \"" +
                        name->text + "\"" +
                        (suggestion.empty()
                             ? std::string("; add it to ") + schema_rel
                             : "; did you mean \"" + suggestion +
                                   "\"? (" + schema_rel + ")"),
                    Severity::Error, kind + ":" + name->text);
                continue;
            }
            entry->second.used = true;
            if (has_category && category &&
                entry->second.category != category->text)
                add(findings, f, "telemetry-names", category->line,
                    category->col,
                    "telemetry " + kind + " \"" + name->text +
                        "\" uses category \"" + category->text +
                        "\" but the schema registers \"" +
                        entry->second.category + "\"",
                    Severity::Error,
                    "category:" + name->text + ":" + category->text);
        }
    }

    if (!schema_present) {
        if (any_usage) {
            Finding f;
            f.rule = "telemetry-names";
            f.file = schema_rel;
            f.line = 0;
            f.message = "telemetry macros are used under src/ but the "
                        "schema file " +
                        schema_rel + " does not exist";
            f.fingerprint = "telemetry-names|" + schema_rel + "|missing";
            findings.push_back(std::move(f));
        }
        return;
    }
    for (const auto &[key, e] : schema) {
        if (e.used)
            continue;
        Finding f;
        f.rule = "telemetry-names";
        f.file = schema_rel;
        f.line = e.line;
        f.message = "stale schema entry `" + e.kind + " " + e.name +
                    "`: no src/ call site uses it; remove it or "
                    "restore the call site";
        f.fingerprint =
            "telemetry-names|" + schema_rel + "|stale:" + e.name;
        findings.push_back(std::move(f));
    }
}

} // namespace

const std::vector<RuleMeta> &
ruleCatalogue()
{
    static const std::vector<RuleMeta> rules = {
        {"determinism-unordered",
         "No hash-ordered containers in src/ library code; iteration "
         "or export order could reach results"},
        {"determinism-random",
         "No unseeded/global randomness outside common/rng.hh"},
        {"determinism-wall-clock",
         "No wall-clock reads in result-bearing code"},
        {"determinism-atomic-rmw",
         "No atomic read-modify-write inside lambdas handed to the "
         "deterministic pool"},
        {"hot-path-alloc",
         "No heap allocation in solver kernels (linalg/kernels.cc, "
         "kernels_avx2.cc, simd.cc), WindowProblem::build and "
         "evaluateCost, functions taking an Arena&, or lambdas handed "
         "to parallelFor/runTasks"},
        {"layering",
         "Module includes must follow the DAG common <- linalg <- "
         "{hw, mdfg, dataset} <- {slam, baseline} <- {synth, runtime} "
         "<- service (only bench/examples may depend on service)"},
        {"global-state",
         "No mutable static/thread_local variables in src/: "
         "process-global state couples concurrent sessions; waived "
         "sites (pool, telemetry) must carry a justification"},
        {"contract-coverage",
         "linalg/hw functions taking Matrix/Vector parameters must "
         "assert dimension contracts; coverage is gated per module"},
        {"telemetry-names",
         "Telemetry span/counter/gauge/histogram names must match the "
         "checked-in schema (no typos, duplicates, or stale entries)"},
        {"naked-new", "RAII ownership only: no naked new/delete"},
        {"raw-thread",
         "All parallelism goes through archytas::parallel, never raw "
         "std::thread/std::async"},
        {"nodiscard-status",
         "Status-carrying return types in src/ headers must be "
         "[[nodiscard]]"},
        {"direct-io",
         "No direct stream/printf output in src/ library code"},
        {"waiver-syntax", "Malformed analyzer waiver comments"},
    };
    return rules;
}

void
runAllChecks(const AnalysisContext &ctx, std::vector<Finding> &findings,
             std::vector<CoverageRow> &coverage)
{
    for (const SourceFile &f : ctx.files) {
        checkDeterminism(ctx, f, findings);
        checkHotPathAlloc(f, findings);
        checkGlobalState(f, findings);
        checkLayering(f, findings);
        checkStyle(f, findings);
        checkNodiscard(f, findings);
    }
    checkContractCoverage(ctx, findings, coverage);
    checkTelemetryNames(ctx, findings);
}

} // namespace archytas::analyzer
