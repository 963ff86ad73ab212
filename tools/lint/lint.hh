/**
 * @file
 * flywheel_lint — project-specific static analysis.
 *
 * A lightweight declaration/usage parser (no libclang) that enforces
 * the invariants this codebase depends on but a compiler cannot see:
 *
 *  - snapshot  : every member field of a class with
 *                save(BinWriter&)/restore(BinReader&) (or the
 *                Snapshot-level overloads) is referenced in *both*
 *                methods, or carries `// lint: nosnapshot(<reason>)`.
 *                A field added to Lsq but forgotten in save() breaks
 *                bit-identical resume silently — this makes it a
 *                build failure instead.
 *  - stats     : Counter/Average/Distribution members of a component
 *                with registerStats() are all registered (matched by
 *                name or accessor name), or carry
 *                `// lint: nostat(<reason>)`.
 *  - determinism: result-producing code (everything outside the
 *                obs and cli layers) may not read wall clocks or
 *                call rand()-family functions, and may not iterate
 *                std::unordered_map/set (iteration order varies
 *                across libstdc++ versions and would break
 *                byte-stable sweep output).  Escapes:
 *                `// lint: wallclock(<reason>)` and
 *                `// lint: detorder(<reason>)` on the offending line.
 *  - arena     : every repo-defined element type placed in an
 *                ArenaVector/ArenaRing is covered by a
 *                static_assert(std::is_trivially_copyable...) in the
 *                same file (the containers memcpy on snapshot save).
 *  - hygiene   : headers carry a unique FLYWHEEL_*-prefixed include
 *                guard (or #pragma once) and contain no
 *                `using namespace`.
 *
 * Annotation grammar (documented in README "Static analysis"):
 *     // lint: <kind>(<reason>)
 * placed on the offending line or alone on the line directly above
 * it.  <reason> is mandatory — an escape without a why is itself a
 * finding.
 */

#ifndef FLYWHEEL_TOOLS_LINT_LINT_HH
#define FLYWHEEL_TOOLS_LINT_LINT_HH

#include <string>
#include <vector>

namespace flywheel::lint {

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string checker;  ///< snapshot|stats|determinism|arena|hygiene
    std::string message;
};

/** One source file handed to the linter (path + full text). */
struct LintInput
{
    std::string path;
    std::string text;
};

struct LintOptions
{
    /**
     * Path substrings exempt from the determinism checker: the
     * observability and CLI layers legitimately read wall clocks and
     * never feed simulation results.
     */
    std::vector<std::string> deterministicAllow{"/obs/", "tools/"};
};

/** Names of all checkers, in report order. */
const std::vector<std::string> &checkerNames();

/** Run every checker over @p files. */
std::vector<Finding> runLint(const std::vector<LintInput> &files,
                             const LintOptions &options = {});

/**
 * Recursively collect .hh/.cc files under @p dir (sorted, so output
 * order is stable).  False + *error if the directory is unreadable.
 */
bool collectSources(const std::string &dir,
                    std::vector<LintInput> *out,
                    std::string *error);

/** "file:line: [checker] message" */
std::string formatFinding(const Finding &f);

} // namespace flywheel::lint

#endif // FLYWHEEL_TOOLS_LINT_LINT_HH
