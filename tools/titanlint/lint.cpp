#include "titanlint/lint.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "titanlint/engine.hpp"

namespace titanlint {

namespace {

using Kind = Token::Kind;

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }
bool digit(char c) { return c >= '0' && c <= '9'; }

/// Record every `titanlint: allow(rule)` marker inside a comment that
/// starts at `line` (markers on later lines of a block comment attach to
/// the line they appear on).
void scan_allow_markers(std::string_view comment, std::size_t line,
                        std::vector<std::string>& allows) {
  constexpr std::string_view kMarker = "titanlint: allow(";
  std::size_t at = 0;
  std::size_t marker_line = line;
  std::size_t scanned_to = 0;
  while ((at = comment.find(kMarker, at)) != std::string_view::npos) {
    for (std::size_t i = scanned_to; i < at; ++i) {
      if (comment[i] == '\n') ++marker_line;
    }
    scanned_to = at;
    const auto rule_begin = at + kMarker.size();
    const auto rule_end = comment.find(')', rule_begin);
    if (rule_end == std::string_view::npos) break;
    allows.push_back(std::to_string(marker_line) + ":" +
                     std::string{comment.substr(rule_begin, rule_end - rule_begin)});
    at = rule_end;
  }
}

}  // namespace

bool TokenizedFile::allowed(std::size_t line, std::string_view rule) const {
  const auto key = std::to_string(line) + ":" + std::string{rule};
  return std::find(allows.begin(), allows.end(), key) != allows.end();
}

TokenizedFile tokenize(std::string_view text) {
  TokenizedFile out;
  std::size_t i = 0;
  std::size_t line = 1;
  const std::size_t n = text.size();

  const auto skip_string = [&](char quote) {
    // i points at the opening quote; advance past the closing one.
    ++i;
    while (i < n) {
      if (text[i] == '\\' && i + 1 < n) {
        i += 2;
        continue;
      }
      if (text[i] == '\n') ++line;  // unterminated literal: stay resilient
      if (text[i] == quote) {
        ++i;
        return;
      }
      ++i;
    }
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Comments (and their allow-markers).  A '\' at the end of a `//`
    // line is a line continuation: the next physical line is still part
    // of the comment (a classic tokenizer-desync source -- treating it
    // as code would misread `allow()` markers and fake tokens).
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t stop = i;
      while (true) {
        const auto end = text.find('\n', stop);
        if (end == std::string_view::npos) {
          stop = n;
          break;
        }
        auto back = end;
        if (back > i && text[back - 1] == '\r') --back;
        if (back > i && text[back - 1] == '\\') {
          stop = end + 1;  // spliced: keep consuming the next line
          continue;
        }
        stop = end;
        break;
      }
      const auto body = text.substr(i, stop - i);
      scan_allow_markers(body, line, out.allows);
      line += static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
      i = stop;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const auto end = text.find("*/", i + 2);
      const auto stop = end == std::string_view::npos ? n : end + 2;
      const auto body = text.substr(i, stop - i);
      scan_allow_markers(body, line, out.allows);
      line += static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
      i = stop;
      continue;
    }
    // Preprocessor directives: consume the (continued) line, keeping
    // #include targets.
    if (c == '#') {
      std::size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      const bool is_include = text.substr(j).starts_with("include");
      if (is_include) {
        j += 7;
        while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
        if (j < n && (text[j] == '<' || text[j] == '"')) {
          const char close = text[j] == '<' ? '>' : '"';
          const auto end = text.find(close, j + 1);
          if (end != std::string_view::npos) {
            out.includes.push_back(IncludeDirective{
                std::string{text.substr(j + 1, end - j - 1)}, text[j] == '<', line});
          }
        }
      }
      while (i < n && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      const auto word = text.substr(i, j - i);
      // Raw string literals: R"delim( ... )delim".
      if (j < n && text[j] == '"' &&
          (word == "R" || word == "u8R" || word == "uR" || word == "LR")) {
        const auto paren = text.find('(', j + 1);
        if (paren != std::string_view::npos) {
          const auto delim = text.substr(j + 1, paren - j - 1);
          std::string closer;
          closer.reserve(delim.size() + 2);
          closer += ')';
          closer += delim;
          closer += '"';
          const auto end = text.find(closer, paren + 1);
          const auto stop = end == std::string_view::npos ? n : end + closer.size();
          const auto body = text.substr(i, stop - i);
          out.tokens.push_back(Token{Kind::kString, std::string{body}, line});
          line += static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
          i = stop;
          continue;
        }
      }
      // Encoding-prefixed ordinary literals (u8"...", L'x', ...).
      if (j < n && (text[j] == '"' || text[j] == '\'') &&
          (word == "u8" || word == "u" || word == "U" || word == "L")) {
        const auto start = i;
        i = j;
        skip_string(text[i]);
        out.tokens.push_back(Token{Kind::kString, std::string{text.substr(start, i - start)}, line});
        continue;
      }
      out.tokens.push_back(Token{Kind::kIdentifier, std::string{word}, line});
      i = j;
      continue;
    }
    if (digit(c)) {
      std::size_t j = i;
      while (j < n && (ident_char(text[j]) || text[j] == '.' || text[j] == '\'' ||
                       ((text[j] == '+' || text[j] == '-') && j > i &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E' || text[j - 1] == 'p' ||
                         text[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back(Token{Kind::kNumber, std::string{text.substr(i, j - i)}, line});
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      const auto start = i;
      skip_string(c);
      out.tokens.push_back(Token{Kind::kString, std::string{text.substr(start, i - start)}, line});
      continue;
    }
    // Punctuation; keep `::` and `->` whole (the rules key on them).
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      out.tokens.push_back(Token{Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      out.tokens.push_back(Token{Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back(Token{Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-file rules (pass 2).  Shared token helpers and the LintContext
// live in engine.hpp; the symbol-table pass is symtab.cpp.
// ---------------------------------------------------------------------------

namespace {

using engine::function_def_at;
using engine::in_dir;
using engine::is_ident;
using engine::kEmpty;
using engine::LintContext;
using engine::match;
using engine::tok;

void rule_det_rand(LintContext& ctx, const SourceFile& file, const TokenizedFile& tf) {
  const auto& t = tf.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdentifier) continue;
    const auto& prev = i > 0 ? t[i - 1].text : kEmpty;
    const bool member = prev == "." || prev == "->";
    const auto& name = t[i].text;
    if (member) continue;
    if (name == "rand" || name == "srand") {
      const bool qualified = prev == "::" && i >= 2 && tok(t, i - 2) == "std";
      const bool called = tok(t, i + 1) == "(";
      if (qualified || (called && prev != "::")) {
        ctx.report(file, tf, t[i].line, Severity::kError, "det-rand",
                   "std::" + name + " is not seedable per-study; use stats::Rng");
      }
    } else if (name == "random_device") {
      ctx.report(file, tf, t[i].line, Severity::kError, "det-rand",
                 "std::random_device draws nondeterministic entropy; seed stats::Rng "
                 "explicitly");
    } else if (name == "time" && tok(t, i + 1) == "(") {
      const bool qualified = prev == "::" && i >= 2 && tok(t, i - 2) == "std";
      if (prev == "::" && !qualified) continue;  // some_ns::time(...)
      const auto& arg = tok(t, i + 2);
      if (arg == "nullptr" || arg == "NULL" || (arg == "0" && tok(t, i + 3) == ")")) {
        ctx.report(file, tf, t[i].line, Severity::kError, "det-rand",
                   "time(" + arg + ") leaks wall-clock into the run; thread an explicit "
                   "seed or timestamp through instead");
      }
    }
  }
}

void rule_det_thread(LintContext& ctx, const SourceFile& file, const TokenizedFile& tf) {
  if (in_dir(file.path, "src/par/")) return;  // the one blessed home of raw threads
  const auto& t = tf.tokens;
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdentifier) continue;
    const auto& name = t[i].text;
    if (name != "thread" && name != "jthread" && name != "async") continue;
    if (t[i - 1].text == "::" && tok(t, i - 2) == "std") {
      ctx.report(file, tf, t[i].line, Severity::kError, "det-thread",
                 "raw std::" + name + " outside src/par breaks the fixed-chunk "
                 "determinism contract; use titan::par primitives");
    }
  }
}

constexpr std::array<std::string_view, 10> kUnorderedIterDirs = {
    "src/analysis/", "src/study/", "src/fault/", "src/ingest/", "src/tdf/",
    "src/core/",     "src/profile/", "src/sched/", "src/stats/", "src/ops/"};

/// Range-fors over unordered-typed names come from the symbol table
/// (which also sees member-style `name_` declarations in transitively
/// included headers, so a .cpp iterating its class's unordered member is
/// caught cross-TU).  Draining via begin()/end() into a sorted container
/// is the sanctioned pattern and stays legal.
void rule_det_unordered_iter(LintContext& ctx, std::size_t f,
                             const engine::SymbolTable& sym) {
  const auto& file = *ctx.files[f];
  if (std::none_of(kUnorderedIterDirs.begin(), kUnorderedIterDirs.end(),
                   [&](std::string_view d) { return in_dir(file.path, d); })) {
    return;
  }
  for (const auto& loop : sym.unordered_loops[f]) {
    ctx.report(file, ctx.tokenized[f], loop.line, Severity::kError, "det-unordered-iter",
               "iteration order of '" + loop.var +
                   "' (std::unordered_*) is unspecified and would leak into report "
                   "bytes; drain into a sorted vector first");
  }
}

// ---------------------------------------------------------------------------
// Profile-layer hygiene.
// ---------------------------------------------------------------------------

/// `profile::FleetProfile` is the one sanctioned door to the K20X
/// structural tables and the active error vocabulary.  Outside the layers
/// that define that door (src/gpu, src/xid, src/profile), including
/// `gpu/k20x.hpp` directly or iterating the bare `xid::all_errors()`
/// taxonomy hardcodes Titan back into profile-generic code.  src/parse is
/// exempt from the taxonomy half: parsers must recognise every token ever
/// written, whichever fleet wrote the file.
void rule_profile_hygiene(LintContext& ctx, const SourceFile& file,
                          const TokenizedFile& tf) {
  if (!in_dir(file.path, "src/")) return;
  if (in_dir(file.path, "src/gpu/") || in_dir(file.path, "src/xid/") ||
      in_dir(file.path, "src/profile/")) {
    return;
  }
  for (const auto& inc : tf.includes) {
    if (!inc.angled && inc.header == "gpu/k20x.hpp") {
      ctx.report(file, tf, inc.line, Severity::kError, "profile-hygiene",
                 "direct include of gpu/k20x.hpp outside the profile layer hardcodes "
                 "the Titan fleet; take a FleetProfile and use its .gpu model instead");
    }
  }
  if (in_dir(file.path, "src/parse/")) return;
  const auto& t = tf.tokens;
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdentifier || t[i].text != "all_errors") continue;
    if (t[i - 1].text == "::" && tok(t, i - 2) == "xid" && tok(t, i + 1) == "(") {
      ctx.report(file, tf, t[i].line, Severity::kError, "profile-hygiene",
                 "bare xid::all_errors() iterates every kind any fleet ever had; use "
                 "FleetProfile::active_kinds() so inactive kinds stay out of reports");
    }
  }
}

// ---------------------------------------------------------------------------
// I/O atomicity (crash consistency).
// ---------------------------------------------------------------------------

/// Dataset artifact names whose durability the crash-consistency contract
/// covers: a non-atomic write of any of these can be observed
/// half-written after a crash.
constexpr std::array<std::string_view, 6> kArtifactNames = {
    "console.log", "jobs.log", "smi_sweep.txt", "manifest.txt", "dataset.tdf",
    "study.ckpt"};

/// If the (quoted) string literal names a dataset artifact, return that
/// name; shard containers match on their ".shard-" stem.
std::string_view artifact_in_literal(std::string_view literal) {
  for (const auto name : kArtifactNames) {
    if (literal.find(name) != std::string_view::npos) return name;
  }
  if (literal.find(".shard-") != std::string_view::npos) return "dataset.shard-*.tdf";
  return {};
}

/// Innermost function definition whose body contains token `i`.
const engine::FunctionDef* enclosing_function(
    const std::vector<engine::FunctionDef>& defs, std::size_t i) {
  const engine::FunctionDef* best = nullptr;
  for (const auto& def : defs) {
    if (def.body_open < i && i < def.body_close &&
        (best == nullptr || def.body_open > best->body_open)) {
      best = &def;
    }
  }
  return best;
}

/// Crash-consistency discipline for dataset artifacts, in two halves:
///
///   (a) anywhere under src/, writing a named dataset artifact through a
///       non-atomic channel (bare write_text / write_lines, or a raw
///       std::ofstream aimed at an artifact name) is flagged -- a crash
///       mid-write would leave a half-written artifact no loader can
///       distinguish from corruption;
///   (b) in the durable-write layers (src/study, src/tdf, src/ckpt), an
///       atomic_write_* / write_tdf call whose enclosing function carries
///       no TITAN_PTP kill point is flagged -- the crash sweep cannot
///       exercise a durable-state transition it never gets to interrupt.
///
/// Carve-outs: src/study/io.cpp implements both the non-atomic primitives
/// and the atomic forwarding wrappers; src/ingest/corrupt.cpp's whole job
/// is deliberate non-atomic mutation; src/faulttest owns the
/// tmp+fsync+rename engine itself.
void rule_io_atomic(LintContext& ctx, std::size_t f, const engine::SymbolTable& sym) {
  const auto& file = *ctx.files[f];
  if (!in_dir(file.path, "src/")) return;
  if (file.path == "src/study/io.cpp" || file.path == "src/ingest/corrupt.cpp" ||
      in_dir(file.path, "src/faulttest/")) {
    return;
  }
  const auto& tf = ctx.tokenized[f];
  const auto& t = tf.tokens;
  const bool ptp_scope = in_dir(file.path, "src/study/") ||
                         in_dir(file.path, "src/tdf/") || in_dir(file.path, "src/ckpt/");
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdentifier) continue;
    const auto& name = t[i].text;

    // Half (a): non-atomic writers aimed at an artifact name.
    if (name == "write_text" || name == "write_lines") {
      if (tok(t, i + 1) != "(") continue;
      const auto close = match(t, i + 1, "(", ")");
      if (close == std::string_view::npos) continue;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].kind != Kind::kString) continue;
        const auto artifact = artifact_in_literal(t[j].text);
        if (artifact.empty()) continue;
        ctx.report(file, tf, t[i].line, Severity::kError, "io-atomic",
                   "non-atomic " + name + " of dataset artifact '" +
                       std::string{artifact} +
                       "'; route it through study::io atomic_write_* so a crash "
                       "cannot leave a half-written artifact");
        break;
      }
      continue;
    }
    if (name == "ofstream") {
      // Scan the declaration statement for an artifact-name literal.
      for (std::size_t j = i + 1; j < t.size() && tok(t, j) != ";"; ++j) {
        if (t[j].kind != Kind::kString) continue;
        const auto artifact = artifact_in_literal(t[j].text);
        if (artifact.empty()) continue;
        ctx.report(file, tf, t[i].line, Severity::kError, "io-atomic",
                   "raw std::ofstream aimed at dataset artifact '" +
                       std::string{artifact} +
                       "'; route it through study::io atomic_write_* so a crash "
                       "cannot leave a half-written artifact");
        break;
      }
      continue;
    }

    // Half (b): atomic writes with no kill point on their path.
    if (!ptp_scope) continue;
    if (name != "atomic_write_text" && name != "atomic_write_lines" &&
        name != "atomic_write_file" && name != "write_tdf") {
      continue;
    }
    if (tok(t, i + 1) != "(") continue;
    const auto* fn = enclosing_function(sym.functions[f], i);
    if (fn == nullptr) continue;  // declaration or definition header, not a call
    bool has_ptp = false;
    for (std::size_t j = fn->body_open; j <= fn->body_close && !has_ptp; ++j) {
      has_ptp = t[j].kind == Kind::kIdentifier && t[j].text == "TITAN_PTP";
    }
    if (!has_ptp) {
      ctx.report(file, tf, t[i].line, Severity::kError, "io-atomic",
                 "atomic write in '" + fn->name +
                     "' has no TITAN_PTP kill point on its path; add one so crash "
                     "sweeps exercise this durable-state transition");
    }
  }
}

// ---------------------------------------------------------------------------
// Capability cross-check.
// ---------------------------------------------------------------------------

enum Cap : unsigned {
  kCapEvents = 1U << 0,
  kCapLedger = 1U << 1,
  kCapSnapshot = 1U << 2,
  kCapTrace = 1U << 3,
  kCapGroundTruth = 1U << 4,
  kCapStrikes = 1U << 5,
};

constexpr std::array<std::pair<std::string_view, unsigned>, 6> kCapNames = {{
    {"kEvents", kCapEvents},
    {"kLedger", kCapLedger},
    {"kSnapshot", kCapSnapshot},
    {"kTrace", kCapTrace},
    {"kGroundTruth", kCapGroundTruth},
    {"kStrikes", kCapStrikes},
}};

unsigned cap_by_name(std::string_view name) {
  for (const auto& [n, bit] : kCapNames) {
    if (n == name) return bit;
  }
  return 0;
}

std::string cap_list(unsigned mask) {
  std::string out;
  for (const auto& [n, bit] : kCapNames) {
    if ((mask & bit) == 0) continue;
    if (!out.empty()) out += "|";
    out += n;
  }
  return out.empty() ? "<none>" : out;
}

/// Capability implied by touching a StudyContext member.
unsigned cap_of_context_member(std::string_view member) {
  if (member == "frame") return kCapEvents;
  if (member == "snapshot") return kCapSnapshot;
  if (member == "trace") return kCapTrace;
  // period / accounting_from / load_stats / capabilities / has / job_log
  // are unconditional context state.
  return 0;
}

/// Capability implied by an EventFrame column accessor.  Base columns
/// (times/nodes/kinds/... and the kind CSR) are covered by the kEvents the
/// `frame` member itself implies, so only the join columns map to extra
/// bits.
unsigned cap_of_frame_column(std::string_view column) {
  if (column == "cards") return kCapLedger;
  if (column == "jobs" || column == "roots") return kCapGroundTruth;
  return 0;
}

/// Per-function summary of EventFrame join-column usage in the analysis
/// helpers: function name -> capability mask implied by `frame.cards()` /
/// `.jobs()` / `.roots()` on EventFrame& parameters.
using AnalysisSummaries = std::map<std::string, unsigned>;

void scan_analysis_file(const TokenizedFile& tf, AnalysisSummaries& summaries) {
  const auto& t = tf.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const auto [params_end, body_open] = function_def_at(t, i);
    if (body_open == std::string_view::npos) continue;
    const auto body_close = match(t, body_open, "{", "}");
    if (body_close == std::string_view::npos) continue;

    std::set<std::string> frame_params;
    for (std::size_t j = i + 2; j + 2 < params_end; ++j) {
      if (t[j].text == "EventFrame" && tok(t, j + 1) == "&" && is_ident(t, j + 2)) {
        frame_params.insert(t[j + 2].text);
      }
    }
    if (!frame_params.empty()) {
      unsigned used = 0;
      for (std::size_t j = body_open; j + 2 < body_close; ++j) {
        if (is_ident(t, j) && frame_params.count(t[j].text) != 0 &&
            tok(t, j + 1) == ".") {
          used |= cap_of_frame_column(tok(t, j + 2));
        }
      }
      summaries[t[i].text] |= used;
    }
    // Don't skip past the body: nested definitions (lambdas) are rare and
    // rescanning is cheap at this file count.
  }
}

struct RegistryEntry {
  std::string analysis;  ///< the registered name ("frequency")
  std::string kernel;    ///< the bound function identifier
  unsigned declared = 0;
  std::size_t line = 0;  ///< line of the add() entry
  bool parsed = true;
};

std::vector<RegistryEntry> parse_registry_entries(LintContext& ctx, const SourceFile& file,
                                                  const TokenizedFile& tf) {
  std::vector<RegistryEntry> entries;
  const auto& t = tf.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_ident(t, i) && t[i].text == "add" && tok(t, i + 1) == "(" &&
          tok(t, i + 2) == "{")) {
      continue;
    }
    const auto close = match(t, i + 2, "{", "}");
    if (close == std::string_view::npos) continue;

    // Split the braced initializer into comma-separated element ranges.
    std::vector<std::pair<std::size_t, std::size_t>> elements;
    std::size_t start = i + 3;
    std::size_t depth = 0;
    for (std::size_t j = i + 3; j <= close; ++j) {
      const auto& p = t[j].text;
      if (t[j].kind == Kind::kPunct) {
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") {
          if (j == close) break;
          --depth;
        }
        if (p == "," && depth == 0) {
          elements.emplace_back(start, j);
          start = j + 1;
          continue;
        }
      }
    }
    elements.emplace_back(start, close);

    RegistryEntry entry;
    entry.line = t[i].line;
    if (elements.size() != 4) {
      ctx.report(file, tf, entry.line, Severity::kError, "cap-parse",
                 "registry entry does not have the {name, description, needs, kernel} "
                 "shape titanlint understands");
      continue;
    }
    const auto [name_b, name_e] = elements[0];
    if (name_e > name_b && t[name_b].kind == Kind::kString && t[name_b].text.size() >= 2) {
      entry.analysis = t[name_b].text.substr(1, t[name_b].text.size() - 2);
    }
    for (std::size_t j = elements[2].first; j < elements[2].second; ++j) {
      if (t[j].kind == Kind::kPunct && t[j].text == "|") continue;
      const auto bit = cap_by_name(t[j].text);
      if (bit == 0) {
        ctx.report(file, tf, t[j].line, Severity::kError, "cap-parse",
                   "unrecognized capability token '" + t[j].text + "' in entry '" +
                       entry.analysis + "'");
        entry.parsed = false;
        break;
      }
      entry.declared |= bit;
    }
    const auto [kernel_b, kernel_e] = elements[3];
    if (kernel_e > kernel_b && is_ident(t, kernel_b)) entry.kernel = t[kernel_b].text;
    if (entry.kernel.empty() || entry.analysis.empty()) entry.parsed = false;
    if (entry.parsed) entries.push_back(std::move(entry));
  }
  return entries;
}

struct KernelUse {
  unsigned used = 0;
  std::array<std::size_t, kCapNames.size()> first_line{};  ///< by bit index, 0 = unseen
};

void note_use(KernelUse& use, unsigned bits, std::size_t line) {
  use.used |= bits;
  for (std::size_t b = 0; b < kCapNames.size(); ++b) {
    if ((bits & kCapNames[b].second) != 0 && use.first_line[b] == 0) {
      use.first_line[b] = line;
    }
  }
}

/// Scan one kernel body for context-member and analysis-helper accesses.
KernelUse scan_kernel_body(const std::vector<Token>& t, std::size_t body_open,
                           std::size_t body_close, const std::string& param,
                           const AnalysisSummaries& summaries) {
  KernelUse use;
  for (std::size_t j = body_open; j < body_close; ++j) {
    if (!is_ident(t, j)) continue;
    if (t[j].text == param && tok(t, j + 1) == ".") {
      const auto& member = tok(t, j + 2);
      note_use(use, cap_of_context_member(member), t[j].line);
      if (member == "frame" && tok(t, j + 3) == ".") {
        note_use(use, cap_of_frame_column(tok(t, j + 4)), t[j].line);
      }
      if (member == "truth") {
        // context.truth->sbe_strikes is the raw strike stream; any other
        // dereference of the ground-truth dataset is kGroundTruth.
        note_use(use,
                 tok(t, j + 3) == "->" && tok(t, j + 4) == "sbe_strikes"
                     ? unsigned{kCapStrikes}
                     : unsigned{kCapGroundTruth},
                 t[j].line);
      }
      continue;
    }
    if (tok(t, j + 1) == "(") {
      const auto it = summaries.find(t[j].text);
      if (it != summaries.end()) note_use(use, it->second, t[j].line);
    }
  }
  return use;
}

void rule_capability_check(LintContext& ctx) {
  const SourceFile* registry_file = nullptr;
  const TokenizedFile* registry_tokens = nullptr;
  AnalysisSummaries summaries;
  for (std::size_t f = 0; f < ctx.files.size(); ++f) {
    const auto& path = ctx.files[f]->path;
    if (path.size() >= 22 && path.ends_with("src/study/registry.cpp")) {
      registry_file = ctx.files[f];
      registry_tokens = &ctx.tokenized[f];
    }
    if (path.find("src/analysis/") != std::string::npos) {
      scan_analysis_file(ctx.tokenized[f], summaries);
    }
  }
  if (registry_file == nullptr) return;
  const auto& t = registry_tokens->tokens;

  const auto entries = parse_registry_entries(ctx, *registry_file, *registry_tokens);
  for (const auto& entry : entries) {
    // Find the kernel's definition: `<kernel>(const StudyContext& <p>) {`.
    std::size_t body_open = std::string_view::npos;
    std::size_t body_close = std::string_view::npos;
    std::string param;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!(is_ident(t, i) && t[i].text == entry.kernel)) continue;
      const auto [params_end, open] = function_def_at(t, i);
      if (open == std::string_view::npos) continue;
      body_open = open;
      body_close = match(t, open, "{", "}");
      if (params_end >= 1 && is_ident(t, params_end - 1)) param = t[params_end - 1].text;
      break;
    }
    if (body_open == std::string_view::npos || body_close == std::string_view::npos ||
        param.empty()) {
      ctx.report(*registry_file, *registry_tokens, entry.line, Severity::kWarning,
                 "cap-parse",
                 "definition of kernel '" + entry.kernel +
                     "' not found in this file; cannot cross-check '" + entry.analysis +
                     "'");
      continue;
    }

    const auto use = scan_kernel_body(t, body_open, body_close, param, summaries);
    const unsigned missing = use.used & ~entry.declared;
    const unsigned unused = entry.declared & ~use.used;
    if (missing != 0) {
      std::size_t line = entry.line;
      for (std::size_t b = 0; b < kCapNames.size(); ++b) {
        if ((missing & kCapNames[b].second) != 0 && use.first_line[b] != 0) {
          line = use.first_line[b];
          break;
        }
      }
      ctx.report(*registry_file, *registry_tokens, line, Severity::kError,
                 "cap-undeclared",
                 "kernel '" + entry.kernel + "' reads " + cap_list(missing) +
                     " but analysis '" + entry.analysis + "' declares only " +
                     cap_list(entry.declared));
    }
    if (unused != 0) {
      ctx.report(*registry_file, *registry_tokens, entry.line, Severity::kWarning,
                 "cap-unused",
                 "analysis '" + entry.analysis + "' declares " + cap_list(unused) +
                     " but no access in kernel '" + entry.kernel +
                     "' can be attributed to it");
    }
  }
}

// ---------------------------------------------------------------------------
// Include hygiene.
// ---------------------------------------------------------------------------

constexpr std::array<std::pair<std::string_view, std::string_view>, 3> kHygieneHeaders = {{
    {"optional", "optional"},
    {"string_view", "string_view"},
    {"span", "span"},
}};

std::string dir_of(std::string_view path) {
  const auto slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string{} : std::string{path.substr(0, slash + 1)};
}

struct IncludeGraph {
  std::map<std::string, std::size_t> by_path;  ///< repo path -> file index

  [[nodiscard]] std::size_t resolve(std::string_view includer,
                                    const std::string& header) const {
    const auto sibling = by_path.find(dir_of(includer) + header);
    if (sibling != by_path.end()) return sibling->second;
    const auto rooted = by_path.find("src/" + header);
    if (rooted != by_path.end()) return rooted->second;
    const auto exact = by_path.find(header);
    if (exact != by_path.end()) return exact->second;
    return std::string_view::npos;
  }
};

/// Standard headers reachable from file `f` through its own includes plus
/// the transitive includes of in-repo headers.
void std_header_closure(const LintContext& ctx, const IncludeGraph& graph, std::size_t f,
                        std::vector<char>& visited, std::set<std::string>& out) {
  if (visited[f] != 0) return;
  visited[f] = 1;
  for (const auto& inc : ctx.tokenized[f].includes) {
    const auto target = graph.resolve(ctx.files[f]->path, inc.header);
    if (target != std::string_view::npos) {
      std_header_closure(ctx, graph, target, visited, out);
    } else if (inc.angled) {
      out.insert(inc.header);
    }
  }
}

void rule_include_hygiene(LintContext& ctx) {
  IncludeGraph graph;
  for (std::size_t f = 0; f < ctx.files.size(); ++f) graph.by_path[ctx.files[f]->path] = f;

  for (std::size_t f = 0; f < ctx.files.size(); ++f) {
    if (engine::is_test_path(ctx.files[f]->path)) continue;
    const auto& t = ctx.tokenized[f].tokens;
    // First use line per tracked name, if any.
    std::map<std::string_view, std::size_t> first_use;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!(is_ident(t, i) && t[i].text == "std" && tok(t, i + 1) == "::")) continue;
      for (const auto& [name, header] : kHygieneHeaders) {
        if (tok(t, i + 2) == name && first_use.find(name) == first_use.end()) {
          first_use[name] = t[i].line;
        }
      }
    }
    if (first_use.empty()) continue;

    std::set<std::string> reachable;
    std::vector<char> visited(ctx.files.size(), 0);
    std_header_closure(ctx, graph, f, visited, reachable);
    for (const auto& [name, header] : kHygieneHeaders) {
      const auto use = first_use.find(name);
      if (use == first_use.end()) continue;
      if (reachable.count(std::string{header}) == 0) {
        ctx.report(*ctx.files[f], ctx.tokenized[f], use->second, Severity::kError,
                   "include-hygiene",
                   "std::" + std::string{name} + " used but <" + std::string{header} +
                       "> is not reachable through this file's includes");
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool LintResult::has_errors() const noexcept { return error_count() > 0; }

std::size_t LintResult::error_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t LintResult::warning_count() const noexcept {
  return diagnostics.size() - error_count();
}

namespace {

/// Tokenize every file into a fresh context (pass 1 setup shared by
/// run_lint and streams_manifest).
engine::LintContext make_context(std::span<const SourceFile> files) {
  engine::LintContext ctx;
  ctx.files.reserve(files.size());
  ctx.tokenized.reserve(files.size());
  for (const auto& file : files) {
    ctx.files.push_back(&file);
    ctx.tokenized.push_back(tokenize(file.text));
  }
  return ctx;
}

}  // namespace

LintResult run_lint(std::span<const SourceFile> files) {
  auto ctx = make_context(files);
  const auto sym = engine::build_symbol_table(ctx);

  for (std::size_t f = 0; f < files.size(); ++f) {
    // tests/ sources feed the symbol table (taxo-untested evidence) but
    // are exempt from the per-file rules: fixtures get to be messy.
    if (engine::is_test_path(files[f].path)) continue;
    rule_det_rand(ctx, files[f], ctx.tokenized[f]);
    rule_det_thread(ctx, files[f], ctx.tokenized[f]);
    rule_det_unordered_iter(ctx, f, sym);
    rule_profile_hygiene(ctx, files[f], ctx.tokenized[f]);
    rule_io_atomic(ctx, f, sym);
  }
  rule_capability_check(ctx);
  rule_include_hygiene(ctx);
  engine::rule_streams(ctx, sym);
  engine::rule_taxonomy(ctx, sym);

  std::stable_sort(ctx.diagnostics.begin(), ctx.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return LintResult{std::move(ctx.diagnostics)};
}

std::string streams_manifest(std::span<const SourceFile> files) {
  const auto ctx = make_context(files);
  const auto sym = engine::build_symbol_table(ctx);
  return engine::render_streams(ctx, sym);
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " +
         (d.severity == Severity::kError ? "error" : "warning") + "[" + d.rule + "]: " +
         d.message;
}

namespace {

void json_escape_to(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
      out += kHex[static_cast<unsigned char>(c) & 0xf];
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string to_json(const LintResult& result) {
  std::string out = "[";
  bool first = true;
  for (const auto& d : result.diagnostics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"path\": \"";
    json_escape_to(out, d.file);
    out += "\", \"line\": " + std::to_string(d.line) + ", \"severity\": \"";
    out += d.severity == Severity::kError ? "error" : "warning";
    out += "\", \"rule\": \"";
    json_escape_to(out, d.rule);
    out += "\", \"message\": \"";
    json_escape_to(out, d.message);
    out += "\"}";
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

}  // namespace titanlint
