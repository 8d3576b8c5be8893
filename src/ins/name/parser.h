// Parser for the name-specifier wire text (paper Figure 3).
//
// Grammar (whitespace permitted anywhere except inside tokens):
//   specifier := av-pair*
//   av-pair   := '[' attribute ( op value )? av-pair* ']'
//   op        := '=' | '<' | '<=' | '>' | '>='
//   value     := '*' | token
//   attribute := token
//   token     := one or more characters excluding whitespace and [ ] = < > *
//
// A bare `[attr]` (no value, as in the paper's `[location]`) parses as a
// wildcard value. `=` with `*` is the explicit wildcard. The relational
// operators are the paper's announced range-selection extension; their bound
// must parse as a number. Duplicate sibling attributes are rejected, and so
// is nesting deeper than kMaxNameDepth av-pairs: the parser and everything
// downstream of it recurse once per level, so hostile wire text must hit
// this bound rather than the stack limit.

#ifndef INS_NAME_PARSER_H_
#define INS_NAME_PARSER_H_

#include <cstddef>
#include <string_view>

#include "ins/common/status.h"
#include "ins/name/name_specifier.h"

namespace ins {

// Deepest av-pair nesting ParseNameSpecifier accepts (a single root pair has
// depth 1).
inline constexpr size_t kMaxNameDepth = 64;

// Parses the text form; errors carry the byte offset of the problem.
Result<NameSpecifier> ParseNameSpecifier(std::string_view text);

}  // namespace ins

#endif  // INS_NAME_PARSER_H_
