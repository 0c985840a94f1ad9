#include "bookshelf/reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace complx {

namespace {

/// The C-locale isspace set: ' ' and '\t' '\n' '\v' '\f' '\r'.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One Bookshelf file, read in blocks and walked one line at a time. Each
/// meaningful line is split into whitespace-separated tokens that view the
/// block (the token vector is reused from line to line). Blank lines, '#'
/// comments (to end of line) and the "UCLA <kind> 1.0" header are skipped.
class Lines {
 public:
  /// With `keep_all`, every block lives as long as this object, so maps
  /// keyed by token views stay valid; otherwise a view lasts until the
  /// next line. Throws "cannot open" unless `optional`; an optional file
  /// that cannot be opened reads as empty.
  explicit Lines(const std::string& path, bool keep_all = false,
                 bool optional = false)
      : path_(path), in_(path, std::ios::binary), keep_all_(keep_all) {
    if (!in_ && !optional) throw std::runtime_error("cannot open " + path);
  }

  /// Advances to the next meaningful line; false at end of file.
  bool next() {
    while (true) {
      const size_t left = static_cast<size_t>(end_ - pos_);
      const char* eol =
          left == 0 ? nullptr
                    : static_cast<const char*>(std::memchr(pos_, '\n', left));
      if (eol == nullptr && refill()) continue;
      if (pos_ == end_) return false;
      if (eol == nullptr) eol = end_;  // last line without '\n'
      const char* hash = static_cast<const char*>(
          std::memchr(pos_, '#', static_cast<size_t>(eol - pos_)));
      split(pos_, hash == nullptr ? eol : hash);
      pos_ = eol == end_ ? end_ : eol + 1;
      ++lineno_;
      if (!toks.empty() && toks[0] != "UCLA") return true;
    }
  }

  /// "Key [:] values..." — true when the line starts with `k`; `first` is
  /// then the index of the first value token.
  bool key(std::string_view k, size_t& first) const {
    if (toks[0] != k) return false;
    first = toks.size() > 1 && toks[1] == ":" ? 2 : 1;
    return true;
  }

  double number(size_t i) const { return parse<double>(i, "number"); }
  long integer(size_t i) const { return parse<long>(i, "integer"); }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(path_ + ":" + std::to_string(lineno_) + ": " +
                             what);
  }

  /// A declared count that disagrees with what was parsed means the file
  /// was truncated (or its header lies) — hard error.
  void check_count(const char* key, long declared, size_t parsed,
                   const char* what) const {
    if (declared >= 0 && static_cast<size_t>(declared) != parsed)
      fail(std::string(key) + "=" + std::to_string(declared) + " but " +
           std::to_string(parsed) + " " + what + " parsed (truncated file?)");
  }

  std::vector<std::string_view> toks;

 private:
  // Below glibc's 128 KiB mmap threshold: freeing one big whole-file buffer
  // would raise that threshold, and the placer's later peak RSS with it.
  static constexpr size_t kBlockBytes = 32 * 1024;

  /// Reads the next block, which starts with the unfinished line
  /// [pos_, end_); false at end of file.
  bool refill() {
    const size_t carry = static_cast<size_t>(end_ - pos_);
    std::string block(std::max(kBlockBytes, 2 * carry), '\0');
    std::copy(pos_, end_, block.data());
    in_.read(block.data() + carry,
             static_cast<std::streamsize>(block.size() - carry));
    if (in_.gcount() <= 0) return false;
    block.resize(carry + static_cast<size_t>(in_.gcount()));
    if (!keep_all_) blocks_.clear();
    blocks_.push_back(std::move(block));
    pos_ = blocks_.back().data();
    end_ = pos_ + blocks_.back().size();
    return true;
  }

  void split(const char* p, const char* e) {
    toks.clear();
    while (true) {
      while (p < e && is_space(*p)) ++p;
      if (p == e) return;
      const char* start = p;
      while (p < e && !is_space(*p)) ++p;
      toks.emplace_back(start, static_cast<size_t>(p - start));
    }
  }

  /// Strict number: the whole token, at most one leading '+', finite.
  template <class T>
  T parse(size_t i, const char* what) const {
    const std::string_view tok = i < toks.size() ? toks[i] : "";
    const bool plus = tok.starts_with('+');
    const std::string_view s = tok.substr(plus ? 1 : 0);
    T v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    bool ok = !s.empty() && !(plus && s.front() == '-') &&
              ec == std::errc() && end == s.data() + s.size();
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
    if (!ok)
      fail(std::string("expected ") + what + ", got '" + std::string(tok) +
           "'");
    return v;
  }

  std::string path_;
  std::ifstream in_;
  bool keep_all_;
  std::vector<std::string> blocks_;
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  size_t lineno_ = 0;
};

/// The single name index: cell name (a view into the .nodes blocks) -> id.
using NameIndex = std::unordered_map<std::string_view, CellId>;

/// .nodes: one cell per line, terminals fixed; fills `index`, whose keys
/// view the blocks of `in`.
void read_nodes(Lines& in, Netlist& nl, NameIndex& index) {
  const auto& toks = in.toks;
  long declared = -1;
  size_t v = 0;
  while (in.next()) {
    if (in.key("NumNodes", v)) {
      declared = in.integer(v);
      continue;
    }
    if (in.key("NumTerminals", v)) continue;
    if (toks.size() < 3) in.fail("node line needs: name width height");
    if (!index.emplace(toks[0], static_cast<CellId>(nl.num_cells())).second)
      in.fail("duplicate node name '" + std::string(toks[0]) + "'");
    Cell c;
    c.width = in.number(1);
    c.height = in.number(2);
    for (size_t i = 3; i < toks.size(); ++i)
      if (toks[i] == "terminal" || toks[i] == "terminal_NI")
        c.kind = CellKind::Fixed;
    nl.add_cell(c, toks[0]);
  }
  in.check_count("NumNodes", declared, nl.num_cells(), "nodes");
}

/// .pl: position, orientation and /FIXED go straight onto the parsed cells;
/// the last entry for a name wins, unknown names are ignored.
void read_pl(const std::string& path, Netlist& nl, const NameIndex& index,
             std::vector<bool>& pl_fixed) {
  Lines in(path);
  while (in.next()) {
    if (in.toks.size() < 3) continue;
    const double x = in.number(1);
    const double y = in.number(2);
    bool fixed = false;
    bool flipped = false;
    for (const std::string_view t : in.toks) {
      if (t == "/FIXED" || t == "/FIXED_NI") fixed = true;
      // Orientation token after the colon. The writer emits pin offsets in
      // their current (already-mirrored) frame, so only the FLAG is
      // restored here — no offset transformation.
      if (t == "FN" || t == "FS") flipped = true;
    }
    const auto it = index.find(in.toks[0]);
    if (it == index.end()) continue;
    Cell& c = nl.cell(it->second);
    c.x = x;
    c.y = y;
    c.flipped_x = flipped;
    pl_fixed[it->second] = fixed;
  }
}

std::vector<Row> read_scl(const std::string& path) {
  Lines in(path);
  const auto& toks = in.toks;
  std::vector<Row> rows;
  Row cur;
  bool in_row = false;
  size_t v = 0;
  while (in.next()) {
    if (toks[0] == "CoreRow") {
      in_row = true;
      cur = Row{};
      continue;
    }
    if (toks[0] == "End") {
      if (in_row) rows.push_back(cur);
      in_row = false;
      continue;
    }
    if (!in_row) continue;
    if (in.key("Coordinate", v)) cur.y = in.number(v);
    else if (in.key("Height", v)) cur.height = in.number(v);
    else if (in.key("Sitewidth", v)) cur.site_width = in.number(v);
    else if (in.key("SubrowOrigin", v)) {
      cur.xl = in.number(v);
      // "SubrowOrigin : x NumSites : n" — skip the second colon.
      for (size_t i = v + 1; i < toks.size(); ++i) {
        if (toks[i] != "NumSites") continue;
        size_t j = i + 1;
        if (j < toks.size() && toks[j] == ":") ++j;
        if (j < toks.size()) cur.xh = cur.xl + in.number(j) * cur.site_width;
        break;
      }
    } else if (in.key("NumSites", v)) {
      cur.xh = cur.xl + in.number(v) * cur.site_width;
    }
  }
  return rows;
}

/// .nets: each NetDegree block streams into Netlist::add_net through one
/// reused pin vector; nets with fewer than two pins are dropped. Weights come
/// from .wts, which is optional in practice: no file means unit weights.
void read_nets(const std::string& path, const std::string& wts_path,
               Netlist& nl, const NameIndex& index) {
  Lines wts(wts_path, /*keep_all=*/true, /*optional=*/true);
  std::unordered_map<std::string_view, double> weights;  // views `wts`
  while (wts.next())
    if (wts.toks.size() >= 2 && wts.toks[0] != "NumNets")
      weights[wts.toks[0]] = wts.number(1);
  Lines in(path);
  const auto& toks = in.toks;
  long declared_nets = -1, declared_pins = -1;
  size_t nets = 0, pin_lines = 0;
  long pending = 0;
  std::vector<Pin> pins;
  std::string name;  // a copy: token views end with their line
  auto flush = [&] {
    if (pins.size() < 2) return;
    const auto w = weights.find(name);
    nl.add_net(name, w == weights.end() ? 1.0 : w->second, pins);
  };
  size_t v = 0;
  while (in.next()) {
    if (in.key("NumNets", v) || in.key("NumPins", v)) {
      (toks[0] == "NumNets" ? declared_nets : declared_pins) = in.integer(v);
      continue;
    }
    if (in.key("NetDegree", v)) {
      if (v >= toks.size()) in.fail("NetDegree without count");
      if (pending > 0)
        in.fail("net '" + name + "' declared NetDegree " +
                std::to_string(pins.size() + static_cast<size_t>(pending)) +
                " but only " + std::to_string(pins.size()) +
                " pin lines followed");
      flush();
      pending = in.integer(v);
      name = v + 1 < toks.size() ? std::string(toks[v + 1])
                                 : "net" + std::to_string(nets);
      pins.clear();
      ++nets;
      continue;
    }
    // Pin line: "cellname I|O|B [: dx dy]" — offsets follow the colon.
    if (nets == 0 || pending <= 0)
      in.fail("pin line outside a NetDegree block");
    Pin pin;
    for (size_t i = 1; i < toks.size(); ++i) {
      if (toks[i] != ":") continue;
      if (i + 1 < toks.size()) pin.dx = in.number(i + 1);
      if (i + 2 < toks.size()) pin.dy = in.number(i + 2);
      break;
    }
    // A dangling reference means the .nodes/.nets pair is inconsistent;
    // silently dropping the net would corrupt the connectivity model.
    const auto it = index.find(toks[0]);
    if (it == index.end())
      in.fail("net '" + name + "' pin references unknown node '" +
              std::string(toks[0]) + "'");
    pin.cell = it->second;
    pins.push_back(pin);
    --pending;
    ++pin_lines;
  }
  if (pending > 0)
    in.fail("net '" + name + "' truncated: " +
            std::to_string(pending) + " pin lines missing at EOF");
  flush();
  // Counts include dropped 1-pin nets: a cut file must not read as smaller.
  in.check_count("NumNets", declared_nets, nets, "nets");
  in.check_count("NumPins", declared_pins, pin_lines, "pins");
}

}  // namespace

BookshelfDesign read_bookshelf_files(const std::string& nodes_path,
                                     const std::string& nets_path,
                                     const std::string& wts_path,
                                     const std::string& pl_path,
                                     const std::string& scl_path) {
  BookshelfDesign design;
  Netlist& nl = design.netlist;

  // The name index views the blocks of `nodes`, which live until the nets
  // are read.
  Lines nodes(nodes_path, /*keep_all=*/true);
  NameIndex index;
  read_nodes(nodes, nl, index);

  std::vector<bool> pl_fixed(nl.num_cells(), false);
  read_pl(pl_path, nl, index, pl_fixed);
  std::vector<Row> rows = read_scl(scl_path);
  for (CellId i = 0; i < nl.num_cells(); ++i) {
    Cell& c = nl.cell(i);
    if (pl_fixed[i])
      c.kind = CellKind::Fixed;
    else if (c.kind != CellKind::Fixed && !rows.empty() &&
             c.height > 1.5 * rows.front().height)
      c.kind = CellKind::MovableMacro;  // taller than a row => macro
  }
  read_nets(nets_path, wts_path, nl, index);

  // Core area: union of rows if present, else bounding box of everything.
  std::optional<Rect> core;
  auto grow = [&](const Rect& r) { core = core ? core->united(r) : r; };
  for (const Row& r : rows) grow({r.xl, r.y, r.xh, r.y + r.height});
  if (rows.empty())
    for (const Cell& c : nl.cells()) grow(c.bounds());
  nl.set_core(core.value_or(Rect{}));
  nl.set_rows(std::move(rows));
  nl.finalize();
  return design;
}

BookshelfDesign read_bookshelf(const std::string& aux_path) {
  // "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl"
  Lines aux(aux_path);
  std::vector<std::string> files;
  while (aux.next())
    for (const std::string_view t : aux.toks)
      if (t != ":" && t != "RowBasedPlacement") files.emplace_back(t);
  const std::string dir = aux_path.substr(0, aux_path.find_last_of('/') + 1);
  auto find_ext = [&](const std::string& ext) -> std::string {
    for (const std::string& f : files)
      if (f.size() > ext.size() && f.ends_with(ext)) return dir + f;
    return {};
  };
  const std::string nodes = find_ext(".nodes");
  const std::string nets = find_ext(".nets");
  if (nodes.empty() || nets.empty())
    throw std::runtime_error(aux_path + ": missing .nodes/.nets entries");
  BookshelfDesign d = read_bookshelf_files(nodes, nets, find_ext(".wts"),
                                           find_ext(".pl"), find_ext(".scl"));
  // Design name = aux file stem.
  const std::string stem = aux_path.substr(dir.size());
  d.name = stem.substr(0, stem.find_last_of('.'));
  return d;
}

}  // namespace complx
