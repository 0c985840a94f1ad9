// Reader for the UCLA/GSRC Bookshelf placement format used by the ISPD 2005
// and 2006 contests: .aux (manifest), .nodes (cells), .nets (connectivity
// with pin offsets), .wts (net weights, optional), .pl (positions and
// fixed flags), .scl (row structure).
//
// Grammar, shared by all six files: a file is split into lines at '\n'; a
// '#' ends the line's content; tokens are separated by runs of ' ', '\t',
// '\r', '\v' or '\f' (so CRLF files read like LF files). Blank lines and
// "UCLA <kind> 1.0" headers are skipped. Per file:
//   .aux    RowBasedPlacement : d.nodes d.nets d.wts d.pl d.scl
//   .nodes  NumNodes : N | NumTerminals : T | name width height [terminal]
//   .nets   NumNets : N | NumPins : P | NetDegree : k [name] followed by
//           k pin lines "cell I|O|B [: dx dy]"
//   .wts    netname weight
//   .pl     name x y [: orient] [/FIXED]
//   .scl    CoreRow ... End blocks with Coordinate, Height, Sitewidth,
//           SubrowOrigin : x NumSites : n
// Unknown trailing tokens on known lines are ignored, matching how
// published placers treat contest files.
//
// Numbers are strict: a value must be its whole token (one leading '+' is
// allowed; "12abc", "3.5" as an integer and hex are rejected) and finite
// (no nan/inf, no overflow). Declared NumNodes, NumNets and NumPins must
// match what was parsed — NumNets/NumPins count 1-pin nets, which are then
// dropped — so a file truncated after its header is an error, not a
// smaller design. Every failure is a std::runtime_error "file:line: what".
//
// One name index (cell name -> id, keyed by views into the .nodes text)
// detects duplicate names and resolves both .pl entries and net pins; .pl
// values go straight onto the parsed cells (the last entry for a name
// wins, unknown names are ignored) and nets stream into Netlist::add_net.
#pragma once

#include <string>

#include "netlist/netlist.h"

namespace complx {

struct BookshelfDesign {
  Netlist netlist;
  std::string name;
};

/// Loads a design from its .aux manifest. Throws std::runtime_error with a
/// file/line diagnostic on malformed input.
BookshelfDesign read_bookshelf(const std::string& aux_path);

/// Loads from explicit file paths (wts may be empty → unit weights).
BookshelfDesign read_bookshelf_files(const std::string& nodes_path,
                                     const std::string& nets_path,
                                     const std::string& wts_path,
                                     const std::string& pl_path,
                                     const std::string& scl_path);

}  // namespace complx
