// Recursive-descent parser for the supported SQL subset (Fig. 2's "SQL
// Parser" stage). Returns positioned error messages on malformed input.
//
// Grammar (case-insensitive keywords):
//   query     := SELECT func '(' (ident | '*') ')' FROM ident
//                [WHERE or_expr] [GROUP BY ident] [';']
//   func      := COUNT | SUM | AVG | MIN | MAX | MEDIAN | VAR | VARIANCE
//   or_expr   := and_expr (OR and_expr)*
//   and_expr  := primary (AND primary)*        // AND binds tighter than OR
//   primary   := '(' or_expr ')' | ident op literal
//   op        := '<' | '<=' | '>' | '>=' | '=' | '==' | '!=' | '<>'
//   literal   := number | quoted string
//   number    := ['+' | '-'] (digits ['.' [digits]] | '.' digits)
//                [('e' | 'E') ['+' | '-'] digits]
//                a decimal literal only (no hex, inf or nan), read by
//                strtod, that must be finite: "1e999" is rejected, "1e-999"
//                reads as 0
//   string    := "'" chars "'" | '"' chars '"'  (a doubled quote inside
//                stands for one)
// Identifiers are [A-Za-z_][A-Za-z0-9_.]*. Parentheses nest at most 256
// deep.
#ifndef PAIRWISEHIST_QUERY_SQL_PARSER_H_
#define PAIRWISEHIST_QUERY_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "query/ast.h"

namespace pairwisehist {

/// Parses one SQL statement into a Query.
StatusOr<Query> ParseSql(const std::string& sql);

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_QUERY_SQL_PARSER_H_
