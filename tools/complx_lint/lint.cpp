#include "lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "summary.h"

namespace complx::lint {

namespace {

// ---------------------------------------------------------------------------
// Source stripping: blank out comments / string literals (so banned tokens
// inside them never fire) while collecting the comment text per line (so
// suppressions and their justifications can be parsed).
// ---------------------------------------------------------------------------

struct SourceView {
  std::string code;                        ///< content, comments/strings blanked
  std::vector<std::string> comment_of_line;  ///< 0-based, comment text per line
};

SourceView strip_source(const std::string& content) {
  SourceView v;
  v.code.reserve(content.size());
  v.comment_of_line.emplace_back();

  enum class State { Code, LineComment, BlockComment, String, Char, RawString };
  State state = State::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  size_t line = 0;

  auto emit_code = [&](char c) { v.code.push_back(c); };
  auto emit_blank = [&](char c) { v.code.push_back(c == '\n' ? '\n' : ' '); };
  auto note_comment = [&](char c) {
    if (c != '\n') v.comment_of_line[line].push_back(c);
  };

  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char n = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && n == '/') {
          state = State::LineComment;
          emit_blank(c);
        } else if (c == '/' && n == '*') {
          state = State::BlockComment;
          emit_blank(c);
          emit_blank(n);
          ++i;
        } else if (c == '"') {
          // Raw string? The prefix ident (R, u8R, LR, ...) ends in 'R'.
          bool raw = false;
          if (i > 0 && content[i - 1] == 'R') {
            size_t j = i + 1;
            raw_delim.clear();
            while (j < content.size() && content[j] != '(' &&
                   content[j] != '\n' && raw_delim.size() < 16)
              raw_delim.push_back(content[j++]);
            raw = j < content.size() && content[j] == '(';
          }
          state = raw ? State::RawString : State::String;
          emit_code(c);  // keep the quote so tokens don't merge across it
        } else if (c == '\'') {
          state = State::Char;
          emit_code(c);
        } else {
          emit_code(c);
        }
        break;
      case State::LineComment:
        if (c == '\n')
          state = State::Code;
        else
          note_comment(c);
        emit_blank(c);
        break;
      case State::BlockComment:
        if (c == '*' && n == '/') {
          state = State::Code;
          emit_blank(c);
          emit_blank(n);
          ++i;
        } else {
          note_comment(c);
          emit_blank(c);
        }
        break;
      case State::String:
        if (c == '\\' && n != '\0') {
          emit_blank(c);
          emit_blank(n);
          if (n == '\n') {
            ++line;
            v.comment_of_line.emplace_back();
          }
          ++i;
        } else if (c == '"') {
          state = State::Code;
          emit_code(c);
        } else {
          emit_blank(c);
        }
        break;
      case State::Char:
        if (c == '\\' && n != '\0') {
          emit_blank(c);
          emit_blank(n);
          ++i;
        } else if (c == '\'') {
          state = State::Code;
          emit_code(c);
        } else {
          emit_blank(c);
        }
        break;
      case State::RawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (content.compare(i, closer.size(), c == ')' ? closer : "~") == 0) {
          for (size_t k = 0; k < closer.size(); ++k) emit_blank(content[i + k]);
          i += closer.size() - 1;
          state = State::Code;
        } else {
          emit_blank(c);
        }
        break;
      }
    }
    if (c == '\n') {
      ++line;
      v.comment_of_line.emplace_back();
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { Ident, Number, Punct } kind = Punct;
  std::string text;
  size_t line = 0;  ///< 1-based
  bool is_float = false;
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

bool number_is_float(const std::string& s) {
  const bool hex = s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  if (hex) return s.find_first_of("pP") != std::string::npos;
  if (s.find('.') != std::string::npos) return true;
  return s.find_first_of("eE") != std::string::npos;
}

std::vector<Token> tokenize(const std::string& code) {
  static const char* kMulti[] = {"...", "::", "->", "==", "!=", "<=", ">=",
                                 "&&", "||", "+=", "-=", "*=", "/=", ">>",
                                 "<<"};
  std::vector<Token> out;
  size_t line = 1;
  for (size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      size_t j = i + 1;
      while (j < code.size() && ident_char(code[j])) ++j;
      out.push_back({Token::Ident, code.substr(i, j - i), line, false});
      i = j;
      continue;
    }
    if (digit(c) || (c == '.' && i + 1 < code.size() && digit(code[i + 1]))) {
      size_t j = i;
      while (j < code.size()) {
        const char d = code[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i) {
          const char p = code[j - 1];
          if (p == 'e' || p == 'E' || p == 'p' || p == 'P')
            ++j;
          else
            break;
        } else {
          break;
        }
      }
      Token t{Token::Number, code.substr(i, j - i), line, false};
      t.is_float = number_is_float(t.text);
      out.push_back(std::move(t));
      i = j;
      continue;
    }
    // Punctuation: longest multi-char match first.
    bool matched = false;
    for (const char* m : kMulti) {
      const size_t len = std::char_traits<char>::length(m);
      if (code.compare(i, len, m) == 0) {
        out.push_back({Token::Punct, m, line, false});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.push_back({Token::Punct, std::string(1, c), line, false});
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions: `// complx-lint: allow(D1): justification` on the same line
// or the line above a finding. Bare allow() — missing justification or no
// rule ids — is itself a finding (SUPP).
// ---------------------------------------------------------------------------

struct Suppressions {
  std::map<size_t, std::set<std::string>> allowed;  ///< 1-based line -> rules
  std::vector<Finding> missing_justification;

  bool covers(size_t line, const std::string& rule) const {
    for (size_t l : {line, line > 0 ? line - 1 : 0}) {
      auto it = allowed.find(l);
      if (it != allowed.end() && it->second.count(rule)) return true;
    }
    return false;
  }
};

std::string trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

Suppressions parse_suppressions(const std::string& path,
                                const std::vector<std::string>& comments) {
  Suppressions sup;
  for (size_t idx = 0; idx < comments.size(); ++idx) {
    const std::string& text = comments[idx];
    const size_t tag = text.find("complx-lint:");
    if (tag == std::string::npos) continue;
    const size_t open = text.find("allow(", tag);
    if (open == std::string::npos) continue;
    const size_t close = text.find(')', open);
    if (close == std::string::npos) continue;
    const size_t line = idx + 1;

    std::string ids = text.substr(open + 6, close - open - 6);
    std::replace(ids.begin(), ids.end(), ',', ' ');
    std::istringstream in(ids);
    std::string id;
    size_t id_count = 0;
    while (in >> id) {
      sup.allowed[line].insert(id);
      ++id_count;
    }
    if (id_count == 0) {
      sup.missing_justification.push_back(
          {path, line, "SUPP",
           "suppression names no rules: // complx-lint: allow(ID): "
           "<why this is safe>"});
      continue;
    }

    std::string just = text.substr(close + 1);
    const size_t b = just.find_first_not_of(" \t:-—");
    just = b == std::string::npos ? "" : trimmed(just.substr(b));
    if (just.size() < 8) {
      sup.missing_justification.push_back(
          {path, line, "SUPP",
           "suppression needs a justification: // complx-lint: allow(ID): "
           "<why this is safe>"});
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Path scoping helpers
// ---------------------------------------------------------------------------

std::string normalized(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool path_has(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

bool in_any_dir(const std::string& path, std::initializer_list<const char*> dirs) {
  for (const char* d : dirs) {
    if (path_has(path, std::string("/") + d + "/")) return true;
    if (path.rfind(std::string(d) + "/", 0) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Token-stream utilities
// ---------------------------------------------------------------------------

/// t[i] is "<": index one past the matching ">" (">>" closes two levels);
/// returns i if this is not a balanced template argument list.
size_t skip_template_args(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (t[j].kind == Token::Punct) {
      if (s == "<")
        ++depth;
      else if (s == ">")
        --depth;
      else if (s == ">>")
        depth -= 2;
      else if (s == ";" || s == "{" || s == "}")
        return i;  // `a < b` expression, not a template
      if (depth <= 0) return j + 1;
    }
  }
  return i;
}

/// t[i] is an opening brace/paren; index of the matching closer (or size()).
size_t find_match(const std::vector<Token>& t, size_t i, const char* open,
                  const char* close) {
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Punct) continue;
    if (t[j].text == open) ++depth;
    if (t[j].text == close && --depth == 0) return j;
  }
  return t.size();
}

bool is(const Token& t, const char* text) { return t.text == text; }

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const std::set<std::string>& unordered_type_names() {
  static const std::set<std::string> k = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return k;
}

/// Names declared (or assigned from a function returning) an unordered
/// associative container within this TU. Token-level, so cross-TU types are
/// invisible — good enough in practice: iteration almost always happens in
/// the file that owns the container.
std::set<std::string> collect_unordered_names(const std::vector<Token>& t) {
  std::set<std::string> names;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Ident || !unordered_type_names().count(t[i].text))
      continue;
    size_t j = i + 1;
    if (j < t.size() && is(t[j], "<")) {
      const size_t after = skip_template_args(t, j);
      if (after == j) continue;
      j = after;
    }
    while (j < t.size() &&
           (is(t[j], "&") || is(t[j], "*") || t[j].text == "const"))
      ++j;
    if (j < t.size() && t[j].kind == Token::Ident) names.insert(t[j].text);
  }
  // Propagate through `auto x = f(...)` when f itself was recorded (e.g. a
  // local function whose declared return type is unordered).
  for (size_t i = 2; i + 1 < t.size(); ++i) {
    if (t[i].kind == Token::Ident && names.count(t[i].text) &&
        is(t[i + 1], "(") && is(t[i - 1], "=") &&
        t[i - 2].kind == Token::Ident)
      names.insert(t[i - 2].text);
  }
  return names;
}

void rule_d1(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  const std::set<std::string> names = collect_unordered_names(t);
  if (names.empty()) return;

  for (size_t i = 0; i + 1 < t.size(); ++i) {
    // Range-for over an unordered container (any component of the postfix
    // chain after ':' counts: `for (auto& kv : obj.map_)`).
    if (t[i].kind == Token::Ident && is(t[i], "for") && is(t[i + 1], "(")) {
      const size_t close = find_match(t, i + 1, "(", ")");
      for (size_t j = i + 2; j < close; ++j) {
        if (!is(t[j], ":")) continue;
        for (size_t k = j + 1; k < close; ++k) {
          if (t[k].kind == Token::Ident) {
            if (names.count(t[k].text)) {
              out.push_back(
                  {path, t[k].line, "D1",
                   "iteration over unordered container '" + t[k].text +
                       "' — hash order is nondeterministic across "
                       "implementations; traverse by index or a sorted "
                       "snapshot"});
              break;
            }
          } else if (!is(t[k], ".") && !is(t[k], "->") && !is(t[k], "::")) {
            break;
          }
        }
        break;
      }
    }
    // Explicit iterator walk: name.begin() / name.cbegin() / ...
    if (t[i].kind == Token::Ident && names.count(t[i].text) &&
        i + 2 < t.size() && (is(t[i + 1], ".") || is(t[i + 1], "->")) &&
        t[i + 2].kind == Token::Ident) {
      static const std::set<std::string> kBegins = {"begin", "cbegin",
                                                    "rbegin", "crbegin"};
      if (kBegins.count(t[i + 2].text)) {
        out.push_back({path, t[i].line, "D1",
                       "iterator over unordered container '" + t[i].text +
                           "' — hash order is nondeterministic; traverse by "
                           "index or a sorted snapshot"});
      }
    }
  }
}

/// D2 source detection for one token. Returns the offending token rendered
/// for a message ("rand()", "this_thread", ...) or empty. Shared between
/// rule_d2 and the taint-seed extraction so the two passes can never
/// disagree on what counts as a nondeterminism source.
std::string d2_source_at(const std::string& path, const std::vector<Token>& t,
                         size_t i) {
  static const std::set<std::string> kAlways = {
      "srand",  "rand_r",  "drand48", "lrand48",
      "mrand48", "random_shuffle", "this_thread"};
  static const std::set<std::string> kCallOnly = {"rand", "time", "clock"};
  if (t[i].kind != Token::Ident) return "";
  const std::string& s = t[i].text;
  const bool member_access =
      i > 0 && (is(t[i - 1], ".") || is(t[i - 1], "->"));
  if (kAlways.count(s)) return s;
  if (s == "random_device" && !path_has(path, "util/rng.h")) return s;
  if (kCallOnly.count(s) && !member_access && i + 1 < t.size() &&
      is(t[i + 1], "("))
    return s + "()";
  return "";
}

void rule_d2(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string src = d2_source_at(path, t, i);
    if (src.empty()) continue;
    const std::string& s = t[i].text;
    if (s == "random_device") {
      out.push_back({path, t[i].line, "D2",
                     "'std::random_device' outside util/rng.h — all entropy "
                     "must flow through the seeded Rng"});
    } else if (s == "time" || s == "clock") {
      out.push_back({path, t[i].line, "D2",
                     "'" + src +
                         "' makes results wall-clock dependent — "
                         "use util/timer.h for measurement and "
                         "explicit seeds for variation"});
    } else {
      out.push_back({path, t[i].line, "D2",
                     "'" + s +
                         "' is a banned nondeterminism source — use the "
                         "seeded util/rng.h Rng"});
    }
  }
}

/// Names declared `double x` / `float y` in this TU (params and locals),
/// including comma-separated declarator lists. Function names (`double f(`)
/// are excluded.
std::set<std::string> collect_fp_names(const std::vector<Token>& t) {
  std::set<std::string> names;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Ident ||
        (t[i].text != "double" && t[i].text != "float"))
      continue;
    size_t j = i + 1;
    while (j < t.size() &&
           (is(t[j], "&") || is(t[j], "*") || t[j].text == "const"))
      ++j;
    if (j >= t.size() || t[j].kind != Token::Ident) continue;
    if (j + 1 < t.size() && is(t[j + 1], "(")) continue;  // function decl
    names.insert(t[j].text);
    // Follow `double a = ..., b = ...;` at paren-depth 0.
    int depth = 0;
    for (size_t k = j + 1; k < t.size(); ++k) {
      const std::string& s = t[k].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") {
        if (--depth < 0) break;
      }
      if (depth == 0 && (s == ";" || s == ":")) break;
      if (depth == 0 && s == "," && k + 1 < t.size() &&
          t[k + 1].kind == Token::Ident)
        names.insert(t[k + 1].text);
    }
  }
  return names;
}

void rule_n1(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  if (path_has(path, "util/fpcmp.h")) return;  // the designated comparator
  const std::set<std::string> fp_names = collect_fp_names(t);
  auto is_fp_operand = [&](const Token& tok) {
    if (tok.kind == Token::Number) return tok.is_float;
    if (tok.kind == Token::Ident) return fp_names.count(tok.text) > 0;
    return false;
  };
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Punct || (!is(t[i], "==") && !is(t[i], "!=")))
      continue;
    if (is_fp_operand(t[i - 1]) || is_fp_operand(t[i + 1])) {
      out.push_back({path, t[i].line, "N1",
                     "raw floating-point '" + t[i].text +
                         "' — state the intent with util/fpcmp.h "
                         "(exactly_equal / approx_equal / ulp_equal)"});
    }
  }
}

void rule_n2(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  if (!in_any_dir(path, {"core", "linalg", "qp"})) return;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!(t[i].kind == Token::Ident && is(t[i], "catch") &&
          is(t[i + 1], "(") && is(t[i + 2], "...") && is(t[i + 3], ")")))
      continue;
    size_t open = i + 4;
    while (open < t.size() && !is(t[open], "{")) ++open;
    const size_t close = find_match(t, open, "{", "}");
    bool handled = false;
    for (size_t j = open + 1; j < close; ++j) {
      if (t[j].kind != Token::Ident) continue;
      const std::string& s = t[j].text;
      if (s.rfind("log_", 0) == 0 || s.rfind("set_", 0) == 0 ||
          s == "throw" || s == "fail" || s == "abort" || s == "exit" ||
          s == "rethrow_exception" ||
          s.find("status") != std::string::npos ||
          s.find("Status") != std::string::npos ||
          s.find("error") != std::string::npos ||
          s.find("Error") != std::string::npos) {
        handled = true;
        break;
      }
    }
    if (!handled) {
      out.push_back({path, t[i].line, "N2",
                     "silent 'catch (...)' in a numerical module — log the "
                     "failure, set a status, or rethrow"});
    }
  }
}

void rule_p1(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  if (path_has(path, "util/parallel.")) return;  // the concurrency authority
  static const std::set<std::string> kBanned = {
      "mutex",           "shared_mutex",      "recursive_mutex",
      "timed_mutex",     "shared_timed_mutex", "recursive_timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",          "atomic_flag",       "atomic_bool",
      "atomic_int",      "atomic_uint",       "atomic_size_t",
      "atomic_thread_fence", "atomic_signal_fence",
      "thread",          "jthread",           "lock_guard",
      "unique_lock",     "scoped_lock",       "shared_lock",
      "call_once",       "once_flag",         "future",
      "shared_future",   "promise",           "packaged_task",
      "async",           "latch",             "barrier",
      "counting_semaphore", "binary_semaphore", "stop_token"};
  for (const Token& tok : t) {
    if (tok.kind != Token::Ident) continue;
    if (kBanned.count(tok.text) ||
        tok.text.rfind("memory_order", 0) == 0) {
      out.push_back({path, tok.line, "P1",
                     "'" + tok.text +
                         "' outside util/parallel.* — the deterministic "
                         "execution layer is the single concurrency "
                         "authority (use parallel_for/parallel_sum, or the "
                         "annotated complx::Mutex when shared state is "
                         "unavoidable)"});
    }
  }
}

/// P2: every mutex declared in src/ must be tied into the clang
/// thread-safety annotation scheme — its name referenced by an annotation
/// argument in the same file, or the declaration wrapped inside a
/// COMPLX_CAPABILITY class (the annotated wrapper itself).
void rule_p2(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  if (!in_any_dir(path, {"src"})) return;
  static const std::set<std::string> kMutexTypes = {
      "mutex",       "shared_mutex",       "recursive_mutex",
      "timed_mutex", "shared_timed_mutex", "recursive_timed_mutex",
      "Mutex"};
  static const std::set<std::string> kAnnotations = {
      "COMPLX_GUARDED_BY",  "COMPLX_PT_GUARDED_BY", "COMPLX_REQUIRES",
      "COMPLX_ACQUIRE",     "COMPLX_RELEASE",       "COMPLX_TRY_ACQUIRE",
      "COMPLX_EXCLUDES",    "COMPLX_ASSERT_CAPABILITY",
      "COMPLX_RETURN_CAPABILITY"};

  // Identifiers named inside annotation arguments.
  std::set<std::string> annotated;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Ident || !kAnnotations.count(t[i].text) ||
        !is(t[i + 1], "("))
      continue;
    const size_t close = find_match(t, i + 1, "(", ")");
    for (size_t j = i + 2; j < close && j < t.size(); ++j)
      if (t[j].kind == Token::Ident) annotated.insert(t[j].text);
  }

  // Token spans of class bodies whose head carries a capability attribute.
  std::vector<std::pair<size_t, size_t>> capability_spans;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Ident ||
        (!is(t[i], "class") && !is(t[i], "struct")))
      continue;
    bool capability = false;
    size_t j = i + 1;
    for (; j < t.size() && j < i + 64; ++j) {
      if (is(t[j], "{") || is(t[j], ";")) break;
      if (t[j].kind == Token::Ident &&
          (t[j].text == "COMPLX_CAPABILITY" ||
           t[j].text == "COMPLX_SCOPED_CAPABILITY"))
        capability = true;
    }
    if (capability && j < t.size() && is(t[j], "{"))
      capability_spans.emplace_back(j, find_match(t, j, "{", "}"));
  }
  auto in_capability_class = [&](size_t i) {
    for (const auto& [b, e] : capability_spans)
      if (i > b && i < e) return true;
    return false;
  };

  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Ident || !kMutexTypes.count(t[i].text)) continue;
    if (i > 0 && (is(t[i - 1], ".") || is(t[i - 1], "->"))) continue;
    if (t[i + 1].kind != Token::Ident) continue;  // not `MutexType name`
    const std::string& name = t[i + 1].text;
    if (annotated.count(name) || in_capability_class(i)) continue;
    out.push_back(
        {path, t[i].line, "P2",
         "mutex '" + name +
             "' has no thread-safety annotation — name it in a "
             "COMPLX_GUARDED_BY(" + name +
             ") on the state it protects (or wrap it in a "
             "COMPLX_CAPABILITY class); see util/parallel.h"});
  }
}

void rule_io1(const std::string& path, const std::vector<Token>& t,
              std::vector<Finding>& out) {
  if (!in_any_dir(path, {"src"})) return;  // apps/tests/benches may stream
  if (path_has(path, "util/atomic_file.")) return;  // the write authority
  // Direct file-writing primitives. Reads (ifstream, fread) are fine — the
  // crash-safety contract is about what the system PUBLISHES: every artifact
  // must go through the temp+fsync+rename protocol of util/atomic_file.h so
  // a crash never leaves a half-written file.
  static const std::set<std::string> kBanned = {"ofstream", "fopen", "freopen",
                                                "fwrite"};
  for (const Token& tok : t) {
    if (tok.kind != Token::Ident || !kBanned.count(tok.text)) continue;
    out.push_back({path, tok.line, "IO1",
                   "'" + tok.text +
                       "' in src/ outside util/atomic_file.* — library "
                       "writes must be crash-safe; compose through "
                       "AtomicFileWriter / write_file_atomic"});
  }
}

void rule_s1(const std::string& path, const std::vector<Token>& t,
             std::vector<Finding>& out) {
  // Hot-path layers must stay name-free. Cell/Net names live in side
  // tables (NamePool) precisely so the solver/density/projection loops
  // never touch string data: one name lookup in a per-cell loop quietly
  // re-inflates the cache footprint the SoA layout paid for. Diagnostics
  // belong in io/, legal/ and the apps, which may resolve names freely.
  if (!in_any_dir(path, {"core", "linalg", "qp", "density", "projection"}))
    return;
  static const std::set<std::string> kBanned = {
      "cell_name", "net_name", "find_cell", "NamePool"};
  for (const Token& tok : t) {
    if (tok.kind != Token::Ident || !kBanned.count(tok.text)) continue;
    out.push_back({path, tok.line, "S1",
                   "'" + tok.text +
                       "' in a hot-path layer — core/linalg/qp/density/"
                       "projection must not touch cell/net names; pass ids "
                       "out and resolve names at the io/app boundary"});
  }
}

// ---------------------------------------------------------------------------
// Cross-file model extraction: #include edges and the function call graph.
// ---------------------------------------------------------------------------

/// Quoted includes, parsed from the raw content (the stripper blanks string
/// literals, which is exactly what an include path is).
std::vector<IncludeEdge> collect_includes(const std::string& content) {
  std::vector<IncludeEdge> out;
  size_t line = 1;
  size_t pos = 0;
  while (pos <= content.size()) {
    const size_t eol = content.find('\n', pos);
    const std::string text =
        content.substr(pos, eol == std::string::npos ? eol : eol - pos);
    size_t i = text.find_first_not_of(" \t");
    if (i != std::string::npos && text[i] == '#') {
      i = text.find_first_not_of(" \t", i + 1);
      if (i != std::string::npos && text.compare(i, 7, "include") == 0) {
        const size_t q1 = text.find('"', i + 7);
        const size_t q2 =
            q1 == std::string::npos ? q1 : text.find('"', q1 + 1);
        if (q2 != std::string::npos) {
          IncludeEdge e;
          e.target = text.substr(q1 + 1, q2 - q1 - 1);
          e.line = line;
          out.push_back(std::move(e));
        }
      }
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
  return out;
}

/// Identifiers that can never name a function being defined or called.
bool is_cpp_keywordish(const std::string& s) {
  static const std::set<std::string> k = {
      "if",       "for",      "while",     "switch",   "catch",
      "return",   "sizeof",   "alignof",   "alignas",  "decltype",
      "constexpr", "consteval", "constinit", "operator", "throw",
      "static_assert", "new", "delete",    "co_await", "co_return",
      "co_yield", "requires", "typeid",    "else",     "do",
      "void",     "int",      "double",    "float",    "char",
      "bool",     "auto",     "long",      "short",    "unsigned",
      "signed",   "case",     "goto",      "default",  "using",
      "namespace", "template", "typename", "explicit", "noexcept"};
  return k.count(s) > 0;
}

/// Extracts function definitions: name, line, direct D2 sources in the
/// body, callee names, taint-source annotations and allow(T1) coverage.
/// Token-level: the body is everything between the definition's braces
/// (lambdas inside attribute their calls to the enclosing function, which
/// is exactly the taint semantics we want).
std::vector<FunctionSummary> extract_functions(
    const std::string& path, const std::vector<Token>& t,
    const std::vector<std::string>& comments, const Suppressions& sup) {
  std::vector<FunctionSummary> out;
  for (size_t i = 1; i < t.size(); ++i) {
    if (!is(t[i], "(") || t[i - 1].kind != Token::Ident ||
        is_cpp_keywordish(t[i - 1].text))
      continue;
    const size_t close = find_match(t, i, "(", ")");
    if (close >= t.size()) continue;

    // Walk the tokens after the parameter list looking for the body brace;
    // anything that cannot appear between them (';', '=', ',', ...) makes
    // this a declaration or a call, not a definition.
    size_t k = close + 1;
    size_t body = t.size();
    bool in_init_list = false;
    const size_t budget = k + 220;
    while (k < t.size() && k < budget) {
      const Token& tok = t[k];
      if (is(tok, "{")) {
        body = k;
        break;
      }
      if (tok.kind == Token::Ident) {
        // Qualifier, trailing-return type component, or an annotation
        // macro such as COMPLX_EXCLUDES(mu_).
        if (k + 1 < t.size() && is(t[k + 1], "(")) {
          const size_t mclose = find_match(t, k + 1, "(", ")");
          if (mclose >= t.size()) break;
          k = mclose + 1;
          // In a ctor initializer list a member init is followed by ','
          // (next member) or '{' (the body).
          if (in_init_list && k < t.size() && is(t[k], ",")) ++k;
        } else {
          ++k;
        }
        continue;
      }
      if (is(tok, ":")) {  // ctor initializer list
        in_init_list = true;
        ++k;
        continue;
      }
      if (is(tok, "<")) {
        const size_t after = skip_template_args(t, k);
        if (after == k) break;
        k = after;
        continue;
      }
      if (is(tok, "&") || is(tok, "&&") || is(tok, "*") || is(tok, "->") ||
          is(tok, "::") || is(tok, ",")) {
        ++k;
        continue;
      }
      break;  // ';', '=', ')', ... — not a definition
    }
    if (body >= t.size()) continue;
    const size_t end = find_match(t, body, "{", "}");
    if (end >= t.size()) continue;

    FunctionSummary fn;
    fn.name = t[i - 1].text;
    fn.line = t[i - 1].line;
    fn.allow_t1 = sup.covers(fn.line, "T1");

    std::set<std::string> callees;
    for (size_t j = body + 1; j < end; ++j) {
      if (t[j].kind != Token::Ident) continue;
      if (fn.source_token.empty()) {
        const std::string src = d2_source_at(path, t, j);
        if (!src.empty()) fn.source_token = src;
      }
      if (j + 1 < end && is(t[j + 1], "(") && !is_cpp_keywordish(t[j].text))
        callees.insert(t[j].text);
    }
    fn.callees.assign(callees.begin(), callees.end());

    // `// complx-lint: taint-source` anywhere from the line above the
    // definition through the body marks the function an explicit source.
    if (fn.source_token.empty()) {
      const size_t first = fn.line > 1 ? fn.line - 1 : 1;
      const size_t last = std::min(t[end].line, comments.size());
      for (size_t l = first; l <= last; ++l) {
        const std::string& c = comments[l - 1];
        if (c.find("complx-lint:") != std::string::npos &&
            c.find("taint-source") != std::string::npos) {
          fn.source_token = "taint-source annotation";
          break;
        }
      }
    }
    out.push_back(std::move(fn));
    i = end;  // a body never contains another non-lambda definition
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> k = {
      {"A1", "no upward #include against the layer DAG declared in "
             "tools/complx_lint/layers.toml"},
      {"A2", "no #include cycles among the scanned files"},
      {"D1", "no iteration over unordered associative containers"},
      {"D2", "no nondeterminism sources (rand/srand/random_device/time/"
             "clock/this_thread) outside util/rng.h"},
      {"N1", "no raw ==/!= on floating-point operands outside util/fpcmp.h"},
      {"N2", "catch (...) in core/linalg/qp must log, set status or rethrow"},
      {"P1", "no std mutexes/atomics/threads outside util/parallel.*"},
      {"P2", "every mutex in src/ carries a COMPLX_GUARDED_BY/capability "
             "annotation"},
      {"T1", "no call chain from core/linalg/qp/projection to a "
             "nondeterminism source (determinism taint)"},
      {"IO1", "no direct file-writing primitives (ofstream/fopen/fwrite) in "
              "src/ outside util/atomic_file.*"},
      {"S1", "no cell/net name access (cell_name/net_name/find_cell/"
             "NamePool) in core/linalg/qp/density/projection"},
      {"SUPP", "every allow(...) suppression names rules and carries a "
               "justification"},
      {"IO", "tool-level error: a file could not be read or a layer "
             "declaration could not be parsed"},
  };
  return k;
}

FileSummary summarize_source(const std::string& path,
                             const std::string& content) {
  FileSummary summary;
  summary.path = normalized(path);
  const std::string& norm = summary.path;

  const SourceView view = strip_source(content);
  const std::vector<Token> tokens = tokenize(view.code);
  Suppressions sup = parse_suppressions(norm, view.comment_of_line);

  // A suppression comment may be a multi-line block: extend each allowance
  // down through comment-only/blank lines so it reaches the first line of
  // actual code below the block.
  {
    std::set<size_t> code_lines;
    for (const Token& t : tokens) code_lines.insert(t.line);
    const size_t max_line = view.comment_of_line.size() + 1;
    for (auto& [start, rules] : sup.allowed) {
      for (size_t l = start; l + 1 <= max_line && !code_lines.count(l + 1);
           ++l)
        sup.allowed[l + 1].insert(rules.begin(), rules.end());
    }
  }

  std::vector<Finding> raw;
  rule_d1(norm, tokens, raw);
  rule_d2(norm, tokens, raw);
  rule_n1(norm, tokens, raw);
  rule_n2(norm, tokens, raw);
  rule_p1(norm, tokens, raw);
  rule_p2(norm, tokens, raw);
  rule_io1(norm, tokens, raw);
  rule_s1(norm, tokens, raw);

  for (Finding& f : raw)
    if (!sup.covers(f.line, f.rule)) summary.findings.push_back(std::move(f));
  summary.findings.insert(summary.findings.end(),
                          sup.missing_justification.begin(),
                          sup.missing_justification.end());

  summary.includes = collect_includes(content);
  for (IncludeEdge& e : summary.includes) {
    e.allow_a1 = sup.covers(e.line, "A1");
    e.allow_a2 = sup.covers(e.line, "A2");
  }
  summary.functions =
      extract_functions(norm, tokens, view.comment_of_line, sup);
  return summary;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  return analyze_sources({{path, content}});
}

}  // namespace complx::lint
